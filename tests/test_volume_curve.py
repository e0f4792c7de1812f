"""Tests for volume curves and their moment statistics.

Frozen values used below, each computed by hand from the closed forms:

  * linear curve, any n, V, threshold tau:   s_p = tau^p / (p + 1)
  * projective-space curve, dimension n, polarization scale n + 1:
        vol(x) = ((n + 1 - x) / (n + 1))^n * V,  tau = n + 1,
        s_p = (n + 1)^p * p! n! / (p + n)!
  * quadratic curve (1 - x)^2 with n = 2:    s_{3/2} = 8/35
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap.errors import DomainError, InvariantViolation, StructureError
from deltap.numeric import SqrtSum
from deltap.piecewise import PiecewisePolynomial, Polynomial
from deltap import volume_curve
from deltap.volume_curve import (
    MAX_CURVE_DEGREE,
    RadialProfile,
    VolumeCurve,
    curve_from_profile,
    random_admissible_curve,
)

F = Fraction


def linear_curve(n=1, V=F(1), tau=F(1)):
    return VolumeCurve(n, V, PiecewisePolynomial(
        (F(0), tau), (Polynomial((V, -V / tau)),)))


def projective_curve(n):
    """vol(x) = V * (1 - x/(n+1))^n with V = (n+1)^n; the curve of the
    anticanonical polarization of projective n-space along a coordinate
    hyperplane."""
    tau = F(n + 1)
    poly = Polynomial((F(1),))
    for _ in range(n):
        poly = poly * Polynomial((F(1), -F(1, n + 1)))
    V = F(n + 1) ** n
    return VolumeCurve(n, V, PiecewisePolynomial((F(0), tau),
                                                 (poly.scale(V),)))


def quadratic_curve():
    return VolumeCurve(2, F(1), PiecewisePolynomial(
        (F(0), F(1)), (Polynomial((F(1), F(-2), F(1))),)))


def corpus(seed=0, per_dim=8):
    out = []
    for n in (1, 2, 3):
        rng = Random(f"tests:{seed}:{n}")
        out.extend(random_admissible_curve(rng, n) for _ in range(per_dim))
    return out


# ---------------------------------------------------------------------------
# validation


def test_rejects_wrong_endpoints():
    with pytest.raises(InvariantViolation):
        VolumeCurve(1, F(2), PiecewisePolynomial(
            (F(0), F(1)), (Polynomial((F(1), F(-1))),)))
    with pytest.raises(InvariantViolation):
        VolumeCurve(1, F(1), PiecewisePolynomial(
            (F(0), F(1)), (Polynomial((F(1), F(-1, 2))),)))


def test_rejects_increasing_segment_with_witness():
    up = Polynomial((F(1), F(1)))           # rises 1 -> 5/4 on [0, 1/4]
    dn = Polynomial((F(5, 3), F(-5, 3)))    # falls 5/4 -> 0 on [1/4, 1]
    curve = PiecewisePolynomial((F(0), F(1, 4), F(1)), (up, dn),
                                continuous=True)
    with pytest.raises(InvariantViolation) as info:
        VolumeCurve(1, F(1), curve)
    assert "increases" in str(info.value)
    assert info.value.witness is not None


def test_rejects_root_concavity_failure():
    # convex decreasing (1 - x)^(1/2)-like data: vol = (1 - x)^4 with
    # n = 2 means vol^(1/2) = (1 - x)^2, strictly convex.
    poly = Polynomial((F(1),))
    for _ in range(4):
        poly = poly * Polynomial((F(1), F(-1)))
    with pytest.raises(InvariantViolation):
        VolumeCurve(2, F(1), PiecewisePolynomial((F(0), F(1)), (poly,)))
    # linear pieces whose slope rises from -2 to -2/3 at the corner x = 1/4
    kinked = PiecewisePolynomial((F(0), F(1, 4), F(1)), (
        Polynomial((F(1), F(-2))), Polynomial((F(2, 3), F(-2, 3)))))
    with pytest.raises(InvariantViolation, match="breakpoint") as info:
        VolumeCurve(1, F(1), kinked)
    assert info.value.witness == {"x": "1/4"}


def test_rejects_sampling_witness_with_rational_witness():
    # 1 - x minus a huge multiple of prod (x - k/64): it agrees with the
    # valid line 1 - x on a 65-point grid, yet ranges from about -2.8 to
    # 3.8 and breaks the barycenter sandwich
    bump = Polynomial((F(1),))
    for k in range(65):
        bump = bump * Polynomial((F(-k, 64), F(1)))
    f = Polynomial((F(1), F(-1))) - bump.scale(10 ** 30)
    with pytest.raises(InvariantViolation) as info:
        VolumeCurve(1, F(1), PiecewisePolynomial((F(0), F(1)), (f,)))
    x = F(info.value.witness["x"])
    assert 0 <= x <= 1 and f.derivative()(x) > 0


def test_root_concavity_with_k_1_decides_the_second_derivative():
    # 1 - (79/64) x plus a huge multiple of prod (x - k/79), k = 0..64, on
    # [0, 64/79]: decreasing, but f'' > 0 at tau.  For k = 1 the sign test
    # is -f'' of degree 63; the test -f f'' of degree 128 ran past 40 s.
    bump = Polynomial((F(1),))
    for k in range(65):
        bump = bump * Polynomial((F(-k, 79), F(1)))
    f = Polynomial((F(1), F(-79, 64))) + bump.scale(10 ** 30)
    with pytest.raises(InvariantViolation,
                       match=r"curve\*\*\(1/1\) is not concave at x = 64/79"):
        VolumeCurve(1, F(1), PiecewisePolynomial((F(0), F(64, 79)), (f,)))
    assert f.derivative().derivative()(F(64, 79)) > 0


def test_refuses_a_curve_over_the_degree_budget(monkeypatch):
    # the same construction on a 129-point grid: its Sturm chains take
    # about 14 s on one x86-64 core, so it is refused before any sign
    # test runs
    def no_sign_test(*args):
        raise AssertionError("a sign test ran")

    monkeypatch.setattr(volume_curve, "first_negative", no_sign_test)
    bump = Polynomial((F(1),))
    for k in range(129):
        bump = bump * Polynomial((F(-k, 128), F(1)))
    f = Polynomial((F(1), F(-1))) - bump.scale(10 ** 30)
    assert f.degree == 129 > MAX_CURVE_DEGREE
    with pytest.raises(DomainError, match="degree 129 is over the budget"):
        VolumeCurve(1, F(1), PiecewisePolynomial((F(0), F(1)), (f,)))


def test_rejects_curve_vanishing_before_tau():
    # (1 - x)^2 then 0: nonincreasing and concave by pieces, but its
    # square root has a corner where its slope rises at x = 1
    first = Polynomial((F(1), F(-2), F(1)))
    curve = PiecewisePolynomial((F(0), F(1), F(2)), (first, Polynomial(())))
    with pytest.raises(InvariantViolation, match="vanishes") as info:
        VolumeCurve(2, F(1), curve)
    assert info.value.witness == {"x": "1"}


# ---------------------------------------------------------------------------
# frozen moments


def test_linear_curve_moments():
    c = linear_curve(tau=F(2))
    for p in range(1, 7):
        assert c.s_p(p) == F(2) ** p / (p + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_projective_curve_closed_form(n, p):
    c = projective_curve(n)
    expected = (F(n + 1) ** p * F(math.factorial(p) * math.factorial(n),
                                  math.factorial(p + n)))
    assert c.s_p(p) == expected


def test_density_route_equals_direct_route():
    for c in corpus(per_dim=5):
        for p in (1, 2, 3):
            assert c.s_p(p) == c.s_p_from_density(p)


def test_half_integer_moment_quadratic():
    # (3/2) * integral x^(1/2) (1-x)^2 dx over [0,1] = 8/35
    c = quadratic_curve()
    got = c.s_p_half(F(3, 2))
    assert (got - SqrtSum.from_rational(F(8, 35))).is_zero()


def test_half_integer_moment_linear_tau_two():
    # linear curve with tau = 2: s_p = 2^p/(p+1), so s_{3/2} = 2^(5/2)/5
    c = linear_curve(tau=F(2))
    got = c.s_p_half(F(3, 2))
    expected = SqrtSum.sqrt(F(2)).scale(F(2) ** 2 / 5)
    assert (got - expected).is_zero()


def test_half_integer_moment_matches_float_route():
    for c in corpus(per_dim=3):
        for p in (F(3, 2), F(5, 2)):
            exact = float(c.s_p_half(p))
            approx = c.s_p_real(float(p))
            assert approx == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_s_p_real_agrees_with_exact_at_integers():
    c = projective_curve(2)
    for p in (1, 2, 5):
        assert c.s_p_real(float(p)) == pytest.approx(float(c.s_p(p)),
                                                     rel=1e-10)


def _dec(q) -> Decimal:
    return Decimal(q.numerator) / q.denominator


def _decimal_power_integral(f, e: Decimal) -> Decimal:
    """integral over f's domain of x**(e-1) f(x) from the termwise closed
    form sum c_k (w**(e+k) - u**(e+k)) / (e+k), in the current context."""
    total = Decimal(0)
    for u, w, piece in f.spans(*f.domain):
        for k, coeff in enumerate(piece.coeffs):
            ends = [_dec(x) ** (e + k) if x else Decimal(0) for x in (u, w)]
            total += _dec(coeff) * (ends[1] - ends[0]) / (e + k)
    return total


# The relative bounds the docstrings state for each real-order statistic.
REAL_ORDER_BOUNDS = {"s_p_real": 2 ** -38, "k_stat": 2 ** -38,
                     "h_stat": 2 ** -37, "r_stat": 2 ** -37}


def _decimal_k_stat(c, s: float) -> Decimal:
    """k_stat at s in 120-digit decimal: tau**s for n = 1, else s/V times
    the density's termwise integral at exponent s - n + 1."""
    with localcontext() as ctx:
        ctx.prec = 120
        sd = Decimal(s)
        if c.n == 1:
            return _dec(c.tau) ** sd
        density = c.curve.derivative().scale(-1)
        return sd * _decimal_power_integral(density, sd - c.n + 1) / _dec(c.V)


def _decimal_statistics(c, p: float) -> dict:
    """s_p_real, h_stat and r_stat at p in 120-digit decimal from the
    termwise closed form."""
    with localcontext() as ctx:
        ctx.prec = 120
        pd, n = Decimal(p), c.n
        moment = pd * _decimal_power_integral(c.curve, pd) / _dec(c.V)
        binom = math.prod((pd + j) / j for j in range(1, n + 1))
        return {"s_p_real": moment,
                "h_stat": ((n + pd) / n * moment) ** (1 / pd),
                "r_stat": (binom * moment) ** (1 / pd)}


def _assert_real_orders_within_bounds(c, p: float) -> None:
    s = c.n - 1 + p
    ref = {**_decimal_statistics(c, p), "k_stat": _decimal_k_stat(c, s)}
    got = {"s_p_real": c.s_p_real(p), "k_stat": c.k_stat(s),
           "h_stat": c.h_stat(p), "r_stat": c.r_stat(p)}
    for name, value in got.items():
        bound = abs(ref[name]) * Decimal(REAL_ORDER_BOUNDS[name])
        assert abs(Decimal(value) - ref[name]) <= bound, (name, p)


REAL_ORDERS = (1.5, 2.5, 3.7, 6.25)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_orders_meet_their_stated_bounds(n):
    rng = Random(f"real-orders:{n}")
    for _ in range(6):
        c = random_admissible_curve(rng, n)
        for p in REAL_ORDERS:
            _assert_real_orders_within_bounds(c, p)


def test_real_orders_keep_their_bounds_where_rounding_tau_is_raised_high():
    # float(56/55) is 1.03e-16 above 56/55, and tau**s raises that to
    # 4.0e-12 at s = 38847.5, past 2**-38; tau**s is near e**700 there
    c = curve_from_profile(1, [0, F(56, 55)], [1, 1])
    _assert_real_orders_within_bounds(c, 38847.5)


@pytest.mark.parametrize("T,n", [(10 ** 3, 3), (10 ** 3, 4), (10 ** 6, 3),
                                 (10 ** 6, 4), (10 ** 9, 3), (10 ** 9, 4)])
def test_s_p_real_keeps_its_bound_where_expansion_about_zero_cancels(T, n):
    # the piece (T - x)**(n-1)-like tail lives far from 0, so a termwise
    # float sum of its expansion about 0 cancels (relative error 4.6e-8
    # at T = 10**3, n = 4 and above 1 at T = 10**6, n = 4); k_stat, h_stat
    # and r_stat at real orders read the same kernel
    c = curve_from_profile(n, [0, T - 1, T], [T, T, 0])
    for p in REAL_ORDERS:
        _assert_real_orders_within_bounds(c, p)


@pytest.mark.parametrize("T", [10 ** 3, 10 ** 6, 10 ** 9])
def test_float_of_a_half_integer_moment_where_its_terms_cancel(T):
    # summed as floats, the terms of this s_{3/2} are off by 3.0e-9, 1.0
    # and 1.2e10 relative at T = 10**3, 10**6 and 10**9
    exact = curve_from_profile(4, [0, T - 1, T], [T, T, 0]).s_p_half(F(3, 2))
    with localcontext() as ctx:
        ctx.prec = 200
        ref = sum(Decimal(c.numerator) / c.denominator * Decimal(r).sqrt()
                  for r, c in exact.terms.items())
        assert abs(Decimal(float(exact)) - ref) <= abs(ref) * Decimal(2) ** -52


def test_moment_rejects_bad_orders():
    c = linear_curve()
    with pytest.raises(DomainError):
        c.s_p(0)
    with pytest.raises(DomainError):
        c.s_p_half(F(1, 3))
    with pytest.raises(DomainError):
        c.s_p_real(0.5)


# ---------------------------------------------------------------------------
# bounds and monotone statistics


def test_barycenter_bounds_hold_exactly_on_corpus():
    for c in corpus(per_dim=8):
        for p in range(1, 6):
            lower, upper = c.barycenter_bounds(p)
            s = c.s_p(p)
            assert lower <= s <= upper


def test_barycenter_bounds_tight_cases():
    # the projective curve meets neither bound; the linear curve at n = 1
    # meets both (they coincide there).
    c = linear_curve(tau=F(3))
    for p in range(1, 5):
        lower, upper = c.barycenter_bounds(p)
        assert lower == upper == c.s_p(p)


def test_barycenter_bounds_real_orders():
    # flat n = 2 curve sits strictly between the bounds at every order;
    # the projective curve would attain the lower bound exactly and turn
    # this into a float-noise coin flip.
    c = VolumeCurve(2, F(1), PiecewisePolynomial(
        (F(0), F(1)), (Polynomial((F(1), F(-1))),)))
    lower, upper = c.barycenter_bounds(2.5)
    s = c.s_p_real(2.5)
    assert lower < s < upper


def test_barycenter_lower_bound_attained_by_projective_curve():
    c = projective_curve(2)
    for p in (1, 2, 3, 4):
        lower, _ = c.barycenter_bounds(p)
        assert c.s_p(p) == lower


def test_power_mean_monotone_in_p():
    # (s_p)^(1/p) is nondecreasing; cross powers keep it exact.
    for c in corpus(per_dim=6):
        for p1 in range(1, 8):
            p2 = p1 + 1
            assert c.s_p(p1) ** p2 <= c.s_p(p2) ** p1


def test_h_stat_monotone_exact_cross_powers():
    for c in corpus(per_dim=6):
        for p1 in range(1, 8):
            p2 = p1 + 1
            lhs = c.h_stat_power(p1) ** p2
            rhs = c.h_stat_power(p2) ** p1
            assert lhs <= rhs


def test_h_stat_limit_on_flat_profile_curve():
    # n = 2 with a linear volume curve: h_stat(p) = tau ((p+2)/(2p+2))^(1/p)
    # approaches tau; at p = 200 it is within 0.35 percent.
    c = VolumeCurve(2, F(1), PiecewisePolynomial(
        (F(0), F(1)), (Polynomial((F(1), F(-1))),)))
    h = c.h_stat(200)
    assert h == pytest.approx(((202.0 / 402.0)) ** (1.0 / 200.0), rel=1e-12)
    assert abs(h - 1.0) < 0.02 * 1.0


@pytest.mark.parametrize("tau", [F(1, 2), F(2)])
def test_h_stat_past_the_float_range(tau):
    # the same curve on [0, tau]: h_stat(p) = tau ((p+2)/(2p+2))^(1/p),
    # while s_p = tau^p/(p+1) underflows or overflows a float at p = 1100
    c = VolumeCurve(2, F(1), PiecewisePolynomial(
        (F(0), tau), (Polynomial((F(1), -1 / tau)),)))
    assert c.h_stat(1100) == pytest.approx(
        float(tau) * (1102.0 / 2202.0) ** (1.0 / 1100.0), rel=1e-12)


def test_h_stat_fractional_orders_monotone_float():
    c = projective_curve(2)
    grid = [1.0 + 0.5 * j for j in range(19)]
    values = [c.h_stat(p) for p in grid]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


# ---------------------------------------------------------------------------
# the K family


def test_k_stat_equals_n_at_n():
    for n in (2, 3):
        c = projective_curve(n)
        assert c.k_stat(n) == pytest.approx(float(n), rel=1e-12)


def test_k_stat_matches_h_stat_on_flag_type_curves():
    # (K(n+p)/K(n))^(1/p) = h_stat(p) for curves with a radial profile
    c = projective_curve(2)
    for p in (1, 2, 3):
        lhs = (c.k_stat(2 + p) / c.k_stat(2)) ** (1.0 / p)
        assert lhs == pytest.approx(c.h_stat(p), rel=1e-9)


def test_k_stat_dimension_one_is_threshold_power():
    c = linear_curve(tau=F(3, 2))
    for s in (1.0, 2.5, 4.0):
        assert c.k_stat(s) == pytest.approx(1.5 ** s, rel=1e-12)


def test_k_stat_log_convex_on_corpus():
    for c in corpus(per_dim=5):
        n = c.n
        grid = [n + 0.5 * j for j in range(13)]
        logs = [math.log(c.k_stat(s)) for s in grid]
        for i in range(1, len(logs) - 1):
            assert logs[i - 1] - 2 * logs[i] + logs[i + 1] >= -1e-9


def test_k_stat_domain_boundary():
    c = projective_curve(3)
    with pytest.raises(DomainError):
        c.k_stat(2.0)  # s must exceed n - 1 = 2
    assert c.k_stat(2.0 + 1e-6) > 0


def _s_p_half_loop(c, p):
    """s_p_half as a loop over the curve's pieces; the oracle below."""
    total = SqrtSum.from_rational(0)
    for i, piece in enumerate(c.curve.pieces):
        lo, hi = c.curve.breakpoints[i], c.curve.breakpoints[i + 1]
        for k, coef in enumerate(piece.coeffs):
            if coef == 0:
                continue
            e = p + k
            term = (SqrtSum.sqrt(hi).scale(hi ** (e - F(1, 2)))
                    - SqrtSum.sqrt(lo).scale(lo ** (e - F(1, 2))))
            total = total + term.scale(coef / e)
    return total.scale(p / c.V)


def test_k_stat_and_s_p_half_equal_their_loop_oracles():
    for n in (1, 2, 3, 4):
        rng = Random(f"loop-oracle:{n}")
        for _ in range(12):
            c = random_admissible_curve(rng, n)
            for s in (n - 0.5, float(n), n + 1.3, n + 2.0, n + 3.7):
                ref = _decimal_k_stat(c, s)
                bound = abs(ref) * Decimal(REAL_ORDER_BOUNDS["k_stat"])
                assert abs(Decimal(c.k_stat(s)) - ref) <= bound
            for p in (F(3, 2), F(5, 2), F(9, 2)):
                got, want = c.s_p_half(p), _s_p_half_loop(c, p)
                # the float sums the roots in order, so the order matters
                assert list(got.terms.items()) == list(want.terms.items())
                assert float(got).hex() == float(want).hex()


# ---------------------------------------------------------------------------
# profiles


def test_radial_profile_roundtrip():
    c = projective_curve(2)
    prof = c.radial_profile()
    assert prof.n == 2
    lo, hi = prof.fpow.domain
    assert prof.fpow.integrate(lo, hi) == 1


def test_radial_profile_rejects_non_flag_curve():
    # Volume curve of G = min(2x, x + 1/4) on the unit square: concave,
    # decreasing, and its square root is concave, yet the density jumps
    # upward at the kink, so no concave radial profile exists.
    first = Polynomial((F(1), F(-1, 2)))   # 1 - x/2 on [0, 1/2]
    second = Polynomial((F(5, 4), F(-1)))  # 5/4 - x on [1/2, 5/4]
    curve = PiecewisePolynomial((F(0), F(1, 2), F(5, 4)), (first, second))
    vc = VolumeCurve(2, F(1), curve)  # accepted: root-concavity holds
    with pytest.raises(InvariantViolation):
        vc.radial_profile()


def test_radial_profile_rejects_interior_zero():
    # sqrt(12) |x - 1/2| is convex, yet 12 (x - 1/2)^2 meets the
    # pointwise root-concavity inequality with equality
    half = Polynomial((F(-1, 2), F(1)))
    fpow = PiecewisePolynomial((F(0), F(1)), ((half * half).scale(12),))
    with pytest.raises(InvariantViolation, match="vanishes inside"):
        RadialProfile(3, fpow)
    # the same zero on a breakpoint
    split = PiecewisePolynomial((F(0), F(1, 2), F(1)),
                                ((half * half).scale(12),) * 2)
    with pytest.raises(InvariantViolation, match="vanishes inside"):
        RadialProfile(3, split)


def test_curve_from_profile_linear_profile_is_projective_curve():
    # profile f(x) = 1 - x/(n+1) times a constant reproduces the
    # projective curve after normalization
    n = 2
    made = curve_from_profile(n, [F(0), F(3)], [F(3), F(0)])
    ref = projective_curve(n)
    for p in (1, 2, 3):
        assert made.s_p(p) == ref.s_p(p)


def test_curve_from_profile_rejects_bad_profiles():
    with pytest.raises(InvariantViolation):
        curve_from_profile(2, [F(0), F(1), F(2)], [F(0), F(1), F(3)])
    with pytest.raises(InvariantViolation):
        curve_from_profile(2, [F(0), F(1)], [F(0), F(0)])
    with pytest.raises(DomainError):
        curve_from_profile(2, [F(1), F(2)], [F(1), F(0)])


# ---------------------------------------------------------------------------
# corpus generator, rescaling, serialization


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_admissible_curve_is_valid(n):
    rng = Random(f"validity:{n}")
    for _ in range(25):
        c = random_admissible_curve(rng, n)
        assert c.n == n
        assert c.curve(F(0)) == c.V
        assert c.curve(c.tau) == 0


def test_random_admissible_curve_deterministic():
    a = random_admissible_curve(Random("fixed"), 2)
    b = random_admissible_curve(Random("fixed"), 2)
    assert a == b


def test_rescale_valuation_scales_moments():
    c = projective_curve(2)
    scaled = c.rescale_valuation(F(3))
    assert scaled.tau == c.tau / 3
    for p in (1, 2, 3):
        assert scaled.s_p(p) == c.s_p(p) / F(3) ** p


def test_json_roundtrip():
    c = projective_curve(3)
    back = VolumeCurve.from_json_dict(c.to_json_dict())
    assert back == c


@pytest.mark.parametrize("change", [
    {"breakpoints": None}, {"breakpoints": "03"}, {"pieces": 3},
    {"pieces": [None]}, {"pieces": ["3-"]},
    {"n": "3"}, {"n": True}, {"tau": "5"}, {"tau": "0"}])
def test_json_malformed_curve_is_a_structure_error(change):
    doc = {**projective_curve(3).to_json_dict(), **change}
    with pytest.raises(StructureError):
        VolumeCurve.from_json_dict(doc)


def test_json_missing_keys_are_a_structure_error():
    # the old degenerate form, which has no breakpoints or pieces
    with pytest.raises(StructureError, match="breakpoints"):
        VolumeCurve.from_json_dict({"n": 2, "V": "7", "tau": "0"})
    doc = projective_curve(3).to_json_dict()
    del doc["tau"]
    with pytest.raises(StructureError, match="tau"):
        VolumeCurve.from_json_dict(doc)
    with pytest.raises(StructureError):
        VolumeCurve.from_json_dict([2, "7", "0"])


def test_real_orders_refuse_values_that_underflow_doubles():
    c = curve_from_profile(1, [0, F(1, 10 ** 400)], [1, 1])
    assert float(c.V) == float(c.tau) == 0.0
    with pytest.raises(DomainError, match="underflows"):
        c.s_p_real(1.5)
    with pytest.raises(DomainError, match="underflows"):
        c.barycenter_bounds(1.5)
    assert c.s_p(2) == c.tau ** 2 / 3  # the exact orders are unaffected
    # tau**p underflows at p = 200.5: every real-order statistic refuses,
    # where h_stat read 0.0 and r_stat took the log of 0
    c = curve_from_profile(2, [0, F(1, 1000)], [1, 0])
    for stat in (c.s_p_real, c.h_stat, c.r_stat, c.k_stat, c.barycenter_bounds):
        with pytest.raises(DomainError, match="underflows.*rescale first"):
            stat(200.5)
    assert c.h_stat(200) > 0  # integer orders take exact roots


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_orders_refuse_values_that_overflow_doubles(n):
    # tau**p overflows at p = 400.5, where k_stat and the real bracket
    # raised a bare OverflowError
    c = curve_from_profile(n, [0, 10], [1, 1 if n == 1 else 0])
    for stat in (c.s_p_real, c.h_stat, c.r_stat, c.k_stat, c.barycenter_bounds):
        with pytest.raises(DomainError, match="overflows.*rescale first"):
            stat(400.5)
    assert c.h_stat(400) > 0


def test_real_orders_read_a_curve_whose_volume_is_past_the_double_range():
    # V = 10**400 / 2 has no double, while s_(3/2), h, r and K(5/2) do
    c = curve_from_profile(2, [0, 10 ** 200], [10 ** 200, 0])
    exact = float(c.s_p_half(F(3, 2)))
    assert exact == pytest.approx(2.2857142857142857e+299, rel=2 ** -52)
    assert abs(c.s_p_real(1.5) - exact) <= 2 ** -38 * exact
    for value in (c.h_stat(1.5), c.r_stat(1.5), c.k_stat(2.5)):
        assert math.isfinite(value)
    _assert_real_orders_within_bounds(c, 1.5)


def test_the_factor_of_the_order_returns_no_inf():
    # on the linear curve with tau = 1.732 * 2**512, s_2 = tau**2/3 is a
    # normal double just below the largest; at tau = 1.733 * 2**512 the
    # integral of x curve/V, tau**2/6, is still one, while 2 times it,
    # s_2, is past the double range and refused, not read as inf
    for t, fits in ((F(1732, 1000), True), (F(1733, 1000), False)):
        tau = t * 2 ** 512
        c = curve_from_profile(1, [0, tau], [1, 1])
        if fits:
            want = float(tau ** 2 / 3)
            assert abs(c.s_p_real(2.0) - want) <= 2 ** -38 * want
            continue
        assert math.isfinite(float(tau ** 2 / 6))
        with pytest.raises(DomainError, match="overflows.*rescale first"):
            c.s_p_real(2.0)


def test_a_curve_builds_its_normalized_forms_once(monkeypatch):
    # k_stat, the density route, the radial profile and s_p_real read
    # curve/V and -curve'/V, built on the first call
    built = []
    init = PiecewisePolynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    for n in (1, 2, 3):
        c = random_admissible_curve(Random(f"normalized-once:{n}"), n)
        c.k_stat(n + 0.5)
        with monkeypatch.context() as patch:
            patch.setattr(PiecewisePolynomial, "__init__", counted)
            for s in (n + 0.5, n + 1.0, n + 2.7):
                c.k_stat(s)
            c.s_p_from_density(2)
            c.s_p_real(2.5)
            if n > 1:
                c.radial_profile()
        assert built == [], n


def test_tau_of_corner_cases():
    assert linear_curve(tau=F(5, 3)).tau == F(5, 3)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=3))
def test_property_barycenter_and_duality(seed, n):
    c = random_admissible_curve(Random(seed), n)
    for p in (1, 2, 3):
        lower, upper = c.barycenter_bounds(p)
        s = c.s_p(p)
        assert lower <= s <= upper
        assert s == c.s_p_from_density(p)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=3),
       c_num=st.integers(min_value=1, max_value=5),
       c_den=st.integers(min_value=1, max_value=5))
def test_property_rescaling_homogeneity(seed, n, c_num, c_den):
    curve = random_admissible_curve(Random(seed), n)
    factor = F(c_num, c_den)
    scaled = curve.rescale_valuation(factor)
    assert scaled.s_p(2) * factor ** 2 == curve.s_p(2)
