"""Tests for the one-dimensional geodesic model: the exact transform
between test curves and rays, order-p speeds, and the quantized-versus-
continuous moment comparison.

Frozen values:

  * psi = 0 on [0, C] transforms to phi(t) = C t (a line through the
    origin with slope C)
  * a constant transform c has every p-speed equal to c
  * the coordinate transform on the standard triangle has first moment
    1/3; level-m first moments on the plane model agree exactly at
    every level, while second moments carry gap 1/3 + 1/(6m)-style
    excesses that shrink with m
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap.errors import DomainError, InvariantViolation, StructureError
from deltap.geodesic import (
    GeodesicRay1D,
    TestCurve1D,
    dp_speed,
    inverse_legendre,
    legendre,
    random_test_curve,
    verify_moment_identity,
)
from deltap.geometry import RationalPolytope
from deltap.invariants import delta_family
from deltap.okounkov import AffineForm, ConcaveTransform
from deltap.toric import ToricValuation, builtin_model, volume_curve_of
from deltap.volume_curve import VolumeCurve

F = Fraction


# ---------------------------------------------------------------------------
# construction and canonical form


def test_test_curve_must_start_at_origin():
    with pytest.raises(StructureError):
        TestCurve1D((F(1), F(2)), (F(0), F(-1)))


def test_test_curve_must_be_nonincreasing_and_concave():
    with pytest.raises(InvariantViolation):
        TestCurve1D((F(0), F(1)), (F(0), F(1)))
    with pytest.raises(InvariantViolation):
        TestCurve1D((F(0), F(1), F(2)), (F(0), F(-2), F(-3)))


def test_test_curve_requires_merged_collinear_pieces():
    with pytest.raises(StructureError):
        TestCurve1D((F(0), F(1), F(2)), (F(0), F(-1), F(-2)))
    merged = TestCurve1D.make((F(0), F(1), F(2)), (F(0), F(-1), F(-2)))
    assert merged.breakpoints == (F(0), F(2))


def test_test_curve_value():
    tc = TestCurve1D((F(0), F(1), F(2)), (F(0), F(0), F(-1)))
    assert tc.value(F(1, 2)) == 0
    assert tc.value(F(3, 2)) == F(-1, 2)
    with pytest.raises(DomainError):
        tc.value(F(3))


def test_ray_growth_bound_enforced():
    with pytest.raises(InvariantViolation):
        GeodesicRay1D(((F(0), F(0)), (F(1), F(3))), F(2))


def test_ray_must_be_convex():
    with pytest.raises(InvariantViolation):
        GeodesicRay1D(((F(0), F(0)), (F(1), F(2)), (F(2), F(3))), F(4))


def test_ray_make_merges_collinear_tail():
    ray = GeodesicRay1D.make([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))],
                             F(1))
    assert ray.knots == ((F(0), F(0)),)
    assert ray.final_slope == 1


def test_ray_value():
    ray = GeodesicRay1D(((F(0), F(0)), (F(1), F(0))), F(2))
    assert ray.value(F(1, 2)) == 0
    assert ray.value(F(2)) == 2
    with pytest.raises(DomainError):
        ray.value(F(-1))


# ---------------------------------------------------------------------------
# the transform


def test_legendre_of_zero_curve_is_linear_ray():
    # psi = 0 on [0, C] pairs with phi(t) = C t
    for C in (F(1), F(5, 2)):
        tc = TestCurve1D((F(0), C), (F(0), F(0)))
        ray = legendre(tc)
        assert ray.knots == ((F(0), F(0)),)
        assert ray.final_slope == C
        assert ray.value(F(3)) == 3 * C


def test_legendre_of_steep_curve_has_flat_start():
    # psi(lambda) = -lambda on [0, 1]: phi(t) = max(0, t - 1)... in PL
    # form the sup of (-lam + t*lam) over lam in [0, 1] is 0 for t <= 1
    # and t - 1 afterwards
    tc = TestCurve1D((F(0), F(1)), (F(0), F(-1)))
    ray = legendre(tc)
    assert ray.value(F(1, 2)) == 0
    assert ray.value(F(2)) == 1
    assert ray.final_slope == 1


def test_inverse_legendre_recovers_zero_curve():
    ray = GeodesicRay1D(((F(0), F(0)),), F(2))
    tc = inverse_legendre(ray)
    assert tc.lambda_max == 2
    assert tc.values == (F(0), F(0))


def test_transform_round_trip_on_random_curves():
    rng = Random("roundtrip")
    for _ in range(60):
        tc = random_test_curve(rng)
        back = inverse_legendre(legendre(tc))
        assert back == tc


def test_transform_growth_bound_exact():
    rng = Random("growth")
    for _ in range(25):
        tc = random_test_curve(rng)
        ray = legendre(tc)
        for t in (F(1, 3), F(1), F(7, 2)):
            v = ray.value(t)
            assert 0 <= v <= ray.final_slope * t


def test_transform_json_round_trip():
    # the witness document of a verify failure reads back to its curve
    tc = TestCurve1D((F(0), F(1), F(3)), (F(0), F(-1), F(-7)))
    doc = tc.to_json_dict()
    assert doc == {"breakpoints": ["0", "1", "3"], "values": ["0", "-1", "-7"]}
    assert TestCurve1D.make(doc["breakpoints"], doc["values"]) == tc


# ---------------------------------------------------------------------------
# the piecewise-linear core against the definitions


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=7)


@st.composite
def _test_curves(draw):
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return random_test_curve(Random(seed), max_pieces=6)


@st.composite
def _rays(draw):
    """A canonical ray from random positive knot steps and strictly
    increasing nonnegative slopes."""
    k = draw(st.integers(min_value=0, max_value=5))
    steps = draw(st.lists(st.fractions(min_value=F(1, 6), max_value=3,
                                       max_denominator=6),
                          min_size=k + 1, max_size=k + 1))
    slopes = [F(0)] if draw(st.booleans()) else []
    for step in steps:
        slopes.append((slopes[-1] if slopes else F(0)) + step)
    knots = [(F(0), F(0))]
    for step, slope in zip(steps, slopes[:k]):
        t, y = knots[-1]
        knots.append((t + step, y + slope * step))
    return GeodesicRay1D.make(knots, slopes[k])


def _blow_up(points, data):
    """``points`` with extra points on each segment (its ends included,
    so runs of repeats and collinear runs both occur)."""
    raw = [points[0]]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        cuts = sorted(data.draw(st.lists(UNIT, max_size=3)))
        raw += [(x0 + c * (x1 - x0), y0 + c * (y1 - y0)) for c in cuts]
        raw.append((x1, y1))
    return raw


@settings(max_examples=80, deadline=None)
@given(tc=_test_curves(), t=st.fractions(min_value=0, max_value=20,
                                         max_denominator=12))
def test_legendre_value_is_the_max_over_breakpoints(tc, t):
    expected = max(y + t * x for x, y in zip(tc.breakpoints, tc.values))
    assert legendre(tc).value(t) == expected


@settings(max_examples=80, deadline=None)
@given(ray=_rays(), u=UNIT)
def test_inverse_legendre_value_is_the_min_over_knots(ray, u):
    lam = u * ray.final_slope
    expected = min(y - t * lam for t, y in ray.knots)
    assert inverse_legendre(ray).value(lam) == expected


@settings(max_examples=80, deadline=None)
@given(tc=_test_curves(), data=st.data())
def test_test_curve_make_is_idempotent(tc, data):
    raw = _blow_up(list(zip(tc.breakpoints, tc.values)), data)
    made = TestCurve1D.make([x for x, _ in raw], [y for _, y in raw])
    assert made == tc
    assert TestCurve1D.make(made.breakpoints, made.values) == made


@settings(max_examples=80, deadline=None)
@given(ray=_rays(), data=st.data())
def test_ray_make_is_idempotent(ray, data):
    t, y = ray.knots[-1]
    tail = [(t + 1, y + ray.final_slope)] if data.draw(st.booleans()) else []
    raw = _blow_up(list(ray.knots) + tail, data)
    data.draw(st.randoms()).shuffle(raw)
    made = GeodesicRay1D.make(raw, ray.final_slope)
    assert made == ray
    assert GeodesicRay1D.make(made.knots, made.final_slope) == made


@pytest.mark.parametrize("b, v", [((0, 2, 1), (0, -2, -1)),
                                  ((0, 1, 0, 2), (0, -1, 0, -2))])
def test_test_curve_make_rejects_a_step_back(b, v):
    with pytest.raises(StructureError, match="below the breakpoint before it"):
        TestCurve1D.make(b, v)


def test_conflicting_duplicates_name_breakpoint_or_knot():
    with pytest.raises(StructureError, match="conflicting duplicate breakpoint"):
        TestCurve1D.make((F(0), F(1), F(1)), (F(0), F(-1), F(-2)))
    with pytest.raises(StructureError, match="conflicting duplicate knot"):
        GeodesicRay1D.make([(F(0), F(0)), (F(1), F(1)), (F(1), F(2))], F(3))


# ---------------------------------------------------------------------------
# speeds


SEGMENT = RationalPolytope([(F(0),), (F(1),)])


def test_dp_speed_of_single_atom():
    # a constant transform is distributed as one atom at its value
    G = ConcaveTransform(SEGMENT, [((F(0),), F(3, 4))])
    for p in (1, 2, 5, 3000):  # (3/4)**3000 is below the float range
        assert dp_speed(G, p) == pytest.approx(0.75, rel=1e-12)


def test_dp_speed_of_transform_is_moment_root():
    tri = RationalPolytope([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    G = ConcaveTransform(tri, [AffineForm.make([F(1), F(0)], F(0))])
    assert dp_speed(G, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert dp_speed(G, 2) == pytest.approx((1.0 / 6.0) ** 0.5, rel=1e-12)


def test_dp_speed_tends_to_top_of_support():
    # min(4x, 2) on [0, 1] puts half its mass on the top level 2
    G = ConcaveTransform(SEGMENT, [((F(4),), F(0)), ((F(0),), F(2))])
    speeds = [dp_speed(G, p) for p in (1, 4, 16, 64)]
    assert all(b >= a for a, b in zip(speeds, speeds[1:]))
    assert speeds[-1] == pytest.approx(2.0, abs=0.05)


def test_dp_speed_rejects_other_sources():
    with pytest.raises(StructureError, match="expects a ConcaveTransform"):
        dp_speed([(0, 1)], 2)
    with pytest.raises(DomainError):
        dp_speed(ConcaveTransform(SEGMENT, [((F(1),), F(0))]), 0)


# ---------------------------------------------------------------------------
# quantized-versus-continuous comparison


def test_moment_identity_first_order_is_exact_on_plane():
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    report = verify_moment_identity(model, val, 1, m_grid=(1, 2, 4))
    assert volume_curve_of(model, val).s_p(1) == F(1, 3)
    for _, quantized in report.rows:
        assert quantized == report.continuous_root


def test_moment_identity_second_order_gap_shrinks():
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    report = verify_moment_identity(model, val, 2, m_grid=(2, 4, 16))
    gaps = [abs(q - report.continuous_root) for _, q in report.rows]
    assert gaps[0] == pytest.approx(0.0918, abs=5e-4)
    assert gaps[-1] <= gaps[1] <= gaps[0]


def test_moment_identity_segment_sits_above_the_limit():
    # the level-m second moment on a segment is 1/3 + 1/(6m): the
    # quantized value exceeds the continuous one at every level, which
    # is why no one-sided comparison is asserted
    model = builtin_model("pn:1")
    val = ToricValuation(model, (1,))
    report = verify_moment_identity(model, val, 2, m_grid=(1, 2, 4, 8))
    for m, quantized in report.rows:
        gap = quantized - report.continuous_root
        exact_quantized = F(2 * m + 1, 6 * m)
        assert gap > 0
        assert gap == pytest.approx(math.sqrt(float(exact_quantized))
                                    - math.sqrt(1.0 / 3.0), abs=1e-12)


def test_moment_identity_names_the_first_decreasing_pair(monkeypatch):
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    monkeypatch.setattr(VolumeCurve, "h_stat_power",
                        lambda self, q: F(1) if q < 3 else F(1, 2))
    with pytest.raises(InvariantViolation,
                       match="normalized speed fails to be nondecreasing") as info:
        verify_moment_identity(model, val, 2, m_grid=(1,))
    assert info.value.witness == {"p_low": 2, "p_high": 3}


def test_empty_grids_raise_in_every_grid_taker():
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    order = "the order grid must be strictly increasing, >= 1"
    with pytest.raises(DomainError, match=order):
        delta_family(model, (), 2)
    with pytest.raises(DomainError, match="the level grid must"):
        verify_moment_identity(model, val, 2, m_grid=())


def test_non_integral_grids_raise_instead_of_truncating():
    order = "the order grid must be strictly increasing, >= 1"
    with pytest.raises(DomainError, match=order):
        delta_family(builtin_model("p2-anticanonical"), (1.5, 2.9), 1)
    with pytest.raises(DomainError, match="the level grid must"):
        verify_moment_identity(builtin_model("p2"),
                               ToricValuation(builtin_model("p2"), (1, 0)),
                               2, m_grid=(2, 4.5))


def test_moment_identity_rejects_bad_grids():
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    with pytest.raises(DomainError):
        verify_moment_identity(model, val, 2, m_grid=(4, 2))
    with pytest.raises(DomainError):
        verify_moment_identity(model, val, 0, m_grid=(1,))
