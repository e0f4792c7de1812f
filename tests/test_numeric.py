"""Tests for exact-arithmetic helpers: rational coercion, float roots,
the order of p-th roots, adaptive quadrature, and square-root sums."""

import contextlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap.errors import DomainError
from deltap.numeric import (
    SqrtSum,
    adaptive_quadrature,
    as_fraction,
    check_grid,
    check_positive_int,
    float_root,
    root_drops,
    squarefree_decompose,
)


# ---------------------------------------------------------------------------
# check_positive_int


def test_check_positive_int_returns_its_argument():
    assert check_positive_int(3, "order p") == 3


@pytest.mark.parametrize("bad", [0, -2, True, 1.0, Fraction(2), "2", None])
def test_check_positive_int_rejects_everything_else(bad):
    with pytest.raises(DomainError, match="order p must be a positive integer"):
        check_positive_int(bad, "order p")


def test_check_grid_returns_a_tuple_of_ints():
    assert check_grid([1, Fraction(3), 4], "order grid") == (1, 3, 4)


@pytest.mark.parametrize("bad", [(), (0, 1), (2, 2), (3, 1), (-1,)])
def test_check_grid_rejects_empty_unsorted_and_small_grids(bad):
    with pytest.raises(DomainError,
                       match="the level grid must be strictly increasing"):
        check_grid(bad, "level grid")


@pytest.mark.parametrize("bad", [(1.5, 2.9), (1, Fraction(5, 2)), (0.5,)])
def test_check_grid_rejects_non_integral_entries(bad):
    with pytest.raises(DomainError,
                       match="the order grid must be strictly increasing"):
        check_grid(bad, "order grid")


def _order_entry_points():
    """One callable per public entry point that takes a positive integer:
    an order p, a level, a count or a dimension."""
    from deltap import filtration, geodesic, invariants, okounkov, piecewise, toric
    model = toric.builtin_model("p2")
    val = toric.ToricValuation(model, (1, 0))
    transform = okounkov.ConcaveTransform(model.P, [((1, 0), 0)])
    flag = filtration.FlagFiltration(
        1, [Fraction(0), Fraction(2)],
        [(Fraction(0), [(1, 0), (0, 1)]), (Fraction(2), [(1, 1)])])
    curve = piecewise.PiecewisePolynomial(
        [Fraction(0), Fraction(1)], [piecewise.Polynomial([Fraction(1)])])
    return [
        lambda p: toric.CandidateTable(model, 1).delta(p),
        lambda p: invariants.kstability_verdict(model, p, 1),
        lambda p: geodesic.dp_speed(transform, p),
        lambda p: geodesic.verify_moment_identity(model, val, p, (1, 2, 4, 8)),
        transform.moment_p,
        transform.moment_from_slices,
        flag.s_m_p,
        lambda p: piecewise.integrate_monomial_weighted(curve, p, 0, 1),
        lambda m: filtration.FlagFiltration(m, [Fraction(0)]),
        lambda m: toric.section_filtration(model, val, m),
        lambda samples: filtration.sup_over_bases_oracle(flag, 1, samples),
        lambda d: filtration.compatible_basis([], d),
    ]


@pytest.mark.parametrize("bad", [0, True, 1.5])
def test_every_order_entry_point_rejects_a_bad_order(bad):
    for call in _order_entry_points():
        with pytest.raises(DomainError, match="must be a positive integer"):
            call(bad)


# ---------------------------------------------------------------------------
# as_fraction


def test_as_fraction_accepts_int_fraction_and_string():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction("5/6") == Fraction(5, 6)
    assert as_fraction("-4") == Fraction(-4)


def test_as_fraction_rejects_floats():
    with pytest.raises(DomainError):
        as_fraction(0.1)


def test_as_fraction_rejects_junk_strings():
    with pytest.raises(DomainError):
        as_fraction("1.5e3/2x")


@pytest.mark.parametrize("flag", [True, False])
def test_as_fraction_rejects_bools(flag):
    with pytest.raises(DomainError, match="exact rational"):
        as_fraction(flag)


# ---------------------------------------------------------------------------
# float_root


@pytest.mark.parametrize("x, p", [(Fraction(2), 2), (Fraction(27, 8), 3),
                                  (Fraction(1, 7), 5), (Fraction(0), 4),
                                  (Fraction(10) ** 300, 7)])
def test_float_root_is_the_float_power_when_x_fits(x, p):
    assert float_root(x, p) == float(x) ** (1.0 / p)


@pytest.mark.parametrize("x, p, root", [
    (Fraction(10) ** 400, 100, 1e4),
    (Fraction(1, 10 ** 400), 100, 1e-4),
    (Fraction(3) ** 1400 / 7, 700, 9 * 7 ** (-1 / 700)),
    (Fraction(2) ** 5000 / 3 ** 1000, 1000, 32 / 3),
    (Fraction(1, 3 * 10 ** 310), 2, 3 ** -0.5 * 1e-155),
])
def test_float_root_takes_logs_past_the_float_range(x, p, root):
    with contextlib.suppress(OverflowError):
        assert float(x) < sys.float_info.min
    assert float_root(x, p) == pytest.approx(root, rel=1e-13)


def test_float_root_overflows_when_the_root_does():
    with pytest.raises(OverflowError):
        float_root(Fraction(10) ** 400, 1)


# ---------------------------------------------------------------------------
# root_drops


def _cross_power_drops(powers):
    """The exact rule root_drops must equal: x1**p2 > x2**p1."""
    return [(p1, p2) for (p1, x1), (p2, x2) in zip(powers, powers[1:])
            if x1 ** p2 > x2 ** p1]


_BIG = st.integers(min_value=1, max_value=10 ** 40)


@st.composite
def _root_chains(draw):
    """Increasing orders with values of three kinds: random positive
    rationals, exact ties r**p on one base r, and such ties moved by one
    unit of a denominator 10**k times their own."""
    orders = sorted(draw(st.sets(st.integers(1, 60), min_size=2, max_size=7)))
    r = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    chain = []
    for p in orders:
        kind = draw(st.sampled_from(("random", "tie", "nudged")))
        if kind == "random":
            x = Fraction(draw(_BIG), draw(_BIG))
        else:
            x = r ** p
            if kind == "nudged":
                unit = Fraction(1, 10 ** draw(st.integers(1, 80)) * x.denominator)
                x += draw(st.sampled_from((-1, 1))) * unit
        chain.append((p, x))
    return chain


@settings(max_examples=300, deadline=None)
@given(chain=_root_chains())
def test_root_drops_equals_the_cross_power_rule(chain):
    assert list(root_drops(chain)) == _cross_power_drops(chain)


def test_root_drops_on_ties_and_near_ties():
    tie = [(1, Fraction(4)), (2, Fraction(16)), (3, Fraction(64))]
    assert list(root_drops(tie)) == []
    eps = Fraction(1, 10 ** 60)
    assert list(root_drops([(1, Fraction(4)), (2, 16 - eps)])) == [(1, 2)]
    assert list(root_drops([(1, Fraction(4)), (2, 16 + eps)])) == []


def test_root_drops_past_the_float_range():
    # 10**400 and 10**-400 have no float; their roots 10**400 > 10**-200.
    chain = [(1, Fraction(10) ** 400), (2, Fraction(1, 10 ** 400))]
    assert list(root_drops(chain)) == [(1, 2)]


# ---------------------------------------------------------------------------
# adaptive_quadrature


def test_quadrature_polynomial_is_exact_to_tolerance():
    # integral of x^3 over [0, 2] is 4
    val = adaptive_quadrature(lambda x: x ** 3, 0.0, 2.0, tol=1e-12)
    assert val == pytest.approx(4.0, abs=1e-11)


def test_quadrature_integrable_singularity():
    # integral of x^(-1/2) over [0, 1] is 2; the endpoint blows up but the
    # integral converges, so the splitter has to work for its money.
    val = adaptive_quadrature(lambda x: x ** -0.5 if x > 0 else 0.0,
                              0.0, 1.0, tol=1e-9)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_quadrature_exp_decay():
    val = adaptive_quadrature(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


# ---------------------------------------------------------------------------
# squarefree_decompose


@given(st.integers(min_value=1, max_value=10_000))
def test_squarefree_decompose_reconstructs(n):
    outer, inner = squarefree_decompose(n)
    assert outer * outer * inner == n
    # inner carries no square factor
    for q in range(2, int(math.isqrt(inner)) + 1):
        assert inner % (q * q) != 0


def test_squarefree_examples():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(50) == (5, 2)


# ---------------------------------------------------------------------------
# SqrtSum: exact numbers of the form sum c_i sqrt(d_i)


def test_sqrtsum_rational_roundtrip():
    x = SqrtSum.from_rational(Fraction(3, 4))
    assert x.is_zero() is False
    assert float(x) == pytest.approx(0.75)


def test_sqrtsum_sqrt_squares_back():
    r = SqrtSum.sqrt(Fraction(2))
    # r*r is not available; instead check float and sign behaviour
    assert float(r) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert r.sign() == 1


def test_sqrtsum_difference_of_equal_roots_is_zero():
    a = SqrtSum.sqrt(Fraction(8))
    b = SqrtSum.sqrt(Fraction(2)).scale(Fraction(2))
    assert (a - b).is_zero()
    assert a == b and hash(a) == hash(b) and (-a + b).is_zero()
    assert repr(a + SqrtSum.from_rational(1)) == "SqrtSum(1 + 2*sqrt(2))"


def test_sqrtsum_sign_of_close_values():
    # sqrt(2) + sqrt(3) vs sqrt(10): 3.1462... vs 3.1622..., so negative.
    lhs = SqrtSum.sqrt(Fraction(2)) + SqrtSum.sqrt(Fraction(3))
    rhs = SqrtSum.sqrt(Fraction(10))
    assert (lhs - rhs).sign() == -1
    assert lhs < rhs and lhs <= rhs and rhs > lhs and rhs >= lhs
    assert not (rhs < lhs or rhs <= lhs or lhs > rhs or lhs >= rhs)


@settings(max_examples=60)
@given(
    a=st.fractions(min_value=Fraction(-5), max_value=Fraction(5)),
    d=st.integers(min_value=2, max_value=30),
)
def test_sqrtsum_sign_agrees_with_float(a, d):
    x = SqrtSum.from_rational(a) + SqrtSum.sqrt(Fraction(d))
    approx = float(a) + math.sqrt(d)
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)
