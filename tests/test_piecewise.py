"""Tests for exact polynomials, piecewise-polynomial curves, and the
moment kernel: ``PiecewisePolynomial.spans`` clips the pieces to [a, b]
and ``power_integral`` sums c (w**(e+k) - u**(e+k)) / (e+k) over them.
The antiderivative of each clipped piece, shifted up by p - 1 with
``shift_up`` below, is the oracle it is checked against; the float
exponents are checked against the exact integer orders and a 120-digit
decimal evaluation.  The
integer-numerator kernel (arithmetic, evaluation, power_integral and the
Sturm root counts) is checked against the Fraction-coefficient reference
it replaced."""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap import piecewise
from deltap.errors import (AccuracyError, DomainError, InvariantViolation,
                           RangeError)
from deltap.piecewise import (
    PiecewisePolynomial,
    Polynomial,
    first_negative,
    integrate_monomial_weighted,
    integrate_real_power,
    lagrange_interpolate,
    power_integral,
    root_counter,
)

F = Fraction


def test_polynomial_eval_and_arith():
    p = Polynomial((F(1), F(-2), F(1)))  # (x-1)^2
    q = Polynomial((F(-1), F(1)))        # x - 1
    assert p(F(3)) == 4
    assert (q * q)(F(5)) == p(F(5))
    assert (p - q * q).is_zero()
    assert (p + q)(F(1)) == 0


def test_polynomial_calculus_roundtrip():
    p = Polynomial((F(2), F(0), F(3)))  # 2 + 3x^2
    assert p.antiderivative().derivative() == p
    assert p.antiderivative()(F(1)) - p.antiderivative()(F(0)) == F(3)
    assert p.derivative()(F(2)) == 12


def shift_up(poly, k):
    """poly times x**k: the oracle's weight x**(p-1) on a piece."""
    return Polynomial((0,) * k + poly.coeffs)


def test_polynomial_shift_up():
    p = Polynomial((F(1), F(1)))
    assert shift_up(p, 2)(F(3)) == 9 * p(F(3))
    assert shift_up(p, 2).degree == 3 and shift_up(p, 0) == p
    assert shift_up(Polynomial(()), 3).is_zero()


def test_evaluation_refuses_a_float():
    p = Polynomial((F(1), F(-1)))
    f = PiecewisePolynomial((F(0), F(1)), (p,))
    for call in (p, f):
        with pytest.raises(DomainError, match="exact rational"):
            call(0.5)
        assert call(F(1, 2)) == F(1, 2) and call(1) == 0


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
def test_polynomial_integral_additive_over_split(coeffs):
    p = Polynomial([F(c) for c in coeffs])
    P = p.antiderivative()

    def closed_form(a, b):
        return sum(F(c, k + 1) * (b ** (k + 1) - a ** (k + 1))
                   for k, c in enumerate(coeffs))

    whole = closed_form(F(0), F(2))
    assert whole == closed_form(F(0), F(3, 4)) + closed_form(F(3, 4), F(2))
    assert P(F(2)) - P(F(0)) == whole


def test_lagrange_interpolation_hits_nodes():
    xs = [F(0), F(1), F(3)]
    ys = [F(2), F(0), F(8)]
    p = lagrange_interpolate(xs, ys)
    assert p.degree <= 2
    for x, y in zip(xs, ys):
        assert p(x) == y


def test_piecewise_construction_rejects_jump():
    up = Polynomial((F(0), F(1)))
    down = Polynomial((F(5), F(-1)))
    with pytest.raises(InvariantViolation):
        PiecewisePolynomial((F(0), F(1), F(2)), (up, down))
    # the same pieces are fine when continuity is not requested
    step = PiecewisePolynomial((F(0), F(1), F(2)), (up, down),
                               continuous=False)
    assert step(F(1)) == 4


def test_piecewise_eval_and_domain():
    # tent function on [0, 2]
    up = Polynomial((F(0), F(1)))
    down = Polynomial((F(2), F(-1)))
    tent = PiecewisePolynomial((F(0), F(1), F(2)), (up, down))
    assert tent.domain == (F(0), F(2))
    assert tent(F(1, 2)) == F(1, 2)
    assert tent(F(3, 2)) == F(1, 2)
    assert tent(F(2)) == 0
    with pytest.raises(RangeError):
        tent(F(-1))


def test_piecewise_integrate_tent():
    up = Polynomial((F(0), F(1)))
    down = Polynomial((F(2), F(-1)))
    tent = PiecewisePolynomial((F(0), F(1), F(2)), (up, down))
    assert power_integral(tent, 1, F(0), F(2)) == 1
    assert power_integral(tent, 1, F(1, 2), F(3, 2)) == F(3, 4)


def test_integrate_monomial_weighted_against_closed_form():
    # f(x) = 1 - x on [0, 1]; int x^(p-1) f dx = 1/p - 1/(p+1)
    f = PiecewisePolynomial((F(0), F(1)), (Polynomial((F(1), F(-1))),))
    for p in range(1, 7):
        got = integrate_monomial_weighted(f, p, F(0), F(1))
        assert got == F(1, p) - F(1, p + 1)


def test_integrate_real_power_matches_exact_on_integer_orders():
    f = PiecewisePolynomial((F(0), F(1)), (Polynomial((F(1), F(-1))),))
    for p in (1, 2, 3):
        exact = integrate_monomial_weighted(f, p, F(0), F(1))
        approx = integrate_real_power(f, float(p), F(0), F(1))
        assert approx == pytest.approx(float(exact), abs=1e-11)


def test_integrate_real_power_half_order():
    # int_0^1 x^(1/2) (1 - x) dx = 2/3 - 2/5 = 4/15
    f = PiecewisePolynomial((F(0), F(1)), (Polynomial((F(1), F(-1))),))
    got = integrate_real_power(f, 1.5, F(0), F(1))
    assert got == pytest.approx(4.0 / 15.0, abs=1e-10)


@settings(max_examples=40)
@given(
    slope=st.integers(min_value=-6, max_value=-1),
    p=st.integers(min_value=1, max_value=5),
)
def test_weighted_moment_scales_linearly(slope, p):
    tau = F(-1, slope)
    f = PiecewisePolynomial((F(0), tau), (Polynomial((F(1), F(slope))),))
    g = f.scale(F(3))
    assert integrate_monomial_weighted(g, p, F(0), tau) == \
        3 * integrate_monomial_weighted(f, p, F(0), tau)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def piecewise_and_bounds(draw):
    """A piecewise polynomial, continuous or not, on breakpoints in
    [0, 4], and bounds a <= b inside its domain, often breakpoints
    themselves, with a = b allowed."""
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=4,
                                      max_denominator=6),
                         min_size=2, max_size=6, unique=True))
    bps = sorted(cuts)
    pieces = [Polynomial(draw(st.lists(SMALL, max_size=5))) for _ in bps[1:]]
    continuous = draw(st.booleans())
    if continuous:  # shift each piece to meet the last at its left end
        for i in range(1, len(pieces)):
            gap = pieces[i - 1](bps[i]) - pieces[i](bps[i])
            pieces[i] = pieces[i] + Polynomial((gap,))
    f = PiecewisePolynomial(bps, pieces, continuous=continuous)
    point = st.one_of(st.sampled_from(bps),
                      st.fractions(min_value=bps[0], max_value=bps[-1],
                                   max_denominator=12))
    a, b = sorted((draw(point), draw(point)))
    return f, a, b


def _antiderivative_oracle(f, p, a, b):
    total = F(0)
    for i, piece in enumerate(f.pieces):
        u = max(a, f.breakpoints[i])
        w = min(b, f.breakpoints[i + 1])
        if u < w:
            antiderivative = shift_up(piece, p - 1).antiderivative()
            total += antiderivative(w) - antiderivative(u)
    return total


@settings(max_examples=120, deadline=None)
@given(fab=piecewise_and_bounds(), p=st.integers(min_value=1, max_value=7))
def test_moment_kernel_matches_antiderivative_oracle(fab, p):
    f, a, b = fab
    expected = _antiderivative_oracle(f, p, a, b)
    assert integrate_monomial_weighted(f, p, a, b) == expected
    assert power_integral(f, p, a, b) == expected
    if a == b:
        assert expected == 0 and f.spans(a, b) == []


def test_spans_clip_to_the_bounds():
    one, two, three = (Polynomial((F(k),)) for k in (1, 2, 3))
    f = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (one, two, three),
                            continuous=False)
    assert f.spans(F(1, 2), F(2)) == [(F(1, 2), F(1), one), (F(1), F(2), two)]
    assert f.spans(F(1), F(1)) == []
    assert power_integral(f, 1, F(1, 2), F(3)) == F(1, 2) + 2 + 3


@pytest.mark.parametrize("a, b, message", [
    (F(1), F(1, 2), "reversed"),
    (F(-1), F(1), "not inside"),
    (F(0), F(3), "not inside"),
])
def test_every_integral_rejects_bounds_off_the_domain(a, b, message):
    f = PiecewisePolynomial((F(0), F(1), F(2)),
                            (Polynomial((F(1),)), Polynomial((F(2), F(-1)))))
    for call in (lambda: power_integral(f, 1, a, b),
                 lambda: integrate_monomial_weighted(f, 2, a, b),
                 lambda: integrate_real_power(f, 1.5, a, b)):
        with pytest.raises(RangeError, match=message):
            call()


def test_float_order_is_the_termwise_float_sum():
    # int_0^1 x^(1/2) (1 - x) dx = 2/3 - 2/5 = 4/15, with the terms in
    # floats and no quadrature
    f = PiecewisePolynomial((F(0), F(1)), (Polynomial((F(1), F(-1))),))
    got = power_integral(f, 1.5, 0, 1)
    assert isinstance(got, float)
    assert got == 1.0 / 1.5 - 1.0 / 2.5


def test_a_cancelling_float_sum_takes_the_decimal_path():
    # int_{T-1}^T x**1.5 (T - x)**3 dx: expanded about 0 its terms reach
    # T**5.5 while the integral is about T**1.5 / 4, so the a-priori
    # bound refuses the float sum and the decimal path keeps 2**-39
    T, e = 10 ** 6, 2.5
    tail = Polynomial((T, -1))
    f = PiecewisePolynomial((T - 1, T), (tail * tail * tail,))
    assert piecewise._float_sum(f.spans(T - 1, T), e) is None
    with localcontext() as ctx:
        ctx.prec = 120
        ref = sum(Decimal(c.numerator) / c.denominator
                  * (Decimal(T) ** (Decimal(e) + k)
                     - Decimal(T - 1) ** (Decimal(e) + k)) / (Decimal(e) + k)
                  for k, c in enumerate(f.pieces[0].coeffs))
        got = Decimal(power_integral(f, e, T - 1, T))
        assert abs(got - ref) <= abs(ref) * Decimal(2) ** -39


def test_a_term_below_the_normal_range_takes_the_decimal_path():
    # float(x) is subnormal and x**1.5 underflows to 0, while the integral
    # 2**1000 x**1.5 / 1.5 = 2**-605 / 1.5 is a normal double
    x = F(1, 2 ** 1070)
    f = PiecewisePolynomial((0, x), (Polynomial((2 ** 1000,)),))
    got = power_integral(f, 1.5, 0, x)
    assert got == pytest.approx(2.0 ** -605 / 1.5, rel=2 ** -39, abs=0)


def test_an_integral_below_the_normal_range_is_refused():
    # int_0^(2**-700) x dx = 2**-1401: every term underflows, and the
    # decimal total, rounded, would read 0.0 where no integral is 0
    x = F(1, 2 ** 700)
    f = PiecewisePolynomial((0, x), (Polynomial((1,)),))
    with pytest.raises(DomainError, match="underflows doubles.*rescale first"):
        power_integral(f, 2.0, 0, x)
    # int_1^(3/2) 2**-1022 dx = 2**-1023 from two normal float terms,
    # 1.5 * 2**-1022 and -2**-1022, whose sum the fast path would certify
    f = PiecewisePolynomial((1, F(3, 2)), (Polynomial((F(1, 2 ** 1022),)),))
    with pytest.raises(DomainError, match="underflows doubles"):
        power_integral(f, 1.0, 1, F(3, 2))
    x = F(1, 2 ** 510)
    f = PiecewisePolynomial((0, x), (Polynomial((1,)),))
    assert power_integral(f, 2.0, 0, x) == 2.0 ** -1021


def test_a_float_exponent_refuses_a_domain_below_zero():
    f = PiecewisePolynomial((-1, 1), (Polynomial((1,)),))
    with pytest.raises(DomainError, match="nonnegative domain"):
        power_integral(f, 1.5, -1, 1)
    assert power_integral(f, 1.5, 0, 1) == 1 / 1.5


def test_an_integral_that_cancels_exactly_raises_at_the_digit_cap(
        monkeypatch):
    # int_1^4 x**-0.5 (x - 7/3) dx = 14/3 - 2 * 7/3 = 0: no relative bound
    # can be met, so the decimal path doubles its digits up to the cap
    monkeypatch.setattr(piecewise, "MAX_DECIMAL_DIGITS", 160)
    f = PiecewisePolynomial((1, 4), (Polynomial((F(-7, 3), 1)),))
    with pytest.raises(AccuracyError, match="cancels past 160 digits"):
        power_integral(f, 0.5, 1, 4)


@pytest.mark.parametrize("e", [F(2), F(3, 4), F(-1, 2), 0, -1, True, 0.0,
                               float("inf"), float("nan")], ids=repr)
def test_power_integral_refuses_an_exponent_it_cannot_take(e):
    f = PiecewisePolynomial([0, 1], [Polynomial([1, -1])])
    with pytest.raises(DomainError, match="exponent"):
        power_integral(f, e, 0, 1)


# ---------------------------------------------------------------------------
# exact sign kernel


def test_sign_kernel_edge_cases():
    assert first_negative(Polynomial(()), F(0), F(1)) is None
    # the left end is tried first, then the right one
    assert first_negative(Polynomial((F(-1),)), F(1, 2), F(3, 4)) == F(1, 2)
    assert first_negative(Polynomial((F(1), F(-2))), F(0), F(1)) == F(1)
    # (x - 1/3)^2 (x - 1) is negative on (1/3, 1) and nowhere else there;
    # its double root at an end of the interval is not inside it
    poly = Polynomial((F(-1, 3), F(1))) * Polynomial((F(-1, 3), F(1))) \
        * Polynomial((F(-1), F(1)))
    assert root_counter(poly)(F(0), F(2)) == 2
    assert root_counter(poly)(F(1, 3), F(1)) == 0
    assert first_negative(poly, F(1, 3), F(1)) is not None
    assert first_negative(poly.scale(-1), F(1, 3), F(1)) is None


# Roots and interval ends share one small grid, so roots often sit on an
# end or repeat.
GRID = st.sampled_from([F(k, 4) for k in range(-8, 9)])


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.tuples(GRID, st.integers(min_value=1, max_value=3)),
                      max_size=5),
       lead=st.integers(min_value=-5, max_value=5).filter(bool),
       ends=st.lists(GRID, min_size=2, max_size=2, unique=True))
def test_sign_kernel_matches_known_roots(roots, lead, ends):
    a, b = sorted(ends)
    poly = Polynomial((F(lead),))
    for r, mult in roots:
        for _ in range(mult):
            poly = poly * Polynomial((-r, F(1)))
    # oracle: the sign is constant between consecutive distinct roots, so
    # the ends and one midpoint per gap show every sign poly takes
    inner = sorted({r for r, _ in roots if a < r < b})
    cuts = [a, *inner, b]
    samples = [a, b] + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    expected = any(poly(x) < 0 for x in samples)
    x = first_negative(poly, a, b)
    assert (x is not None) == expected
    if x is not None:
        assert a <= x <= b and poly(x) < 0
    assert root_counter(poly)(a, b) == len(inner)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction reference it replaced


class FractionPolynomial:
    """The reference: a Fraction per coefficient, ascending, reduced by
    every operation, as ``Polynomial`` was before it held one integer
    numerator per coefficient over a common denominator."""

    def __init__(self, coeffs):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return FractionPolynomial(())
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def scale(self, c):
        return FractionPolynomial(v * F(c) for v in self.coeffs)

    def derivative(self):
        return FractionPolynomial(i * c for i, c in enumerate(self.coeffs)
                                  if i > 0)

    def antiderivative(self):
        return FractionPolynomial(
            [F(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])


def _fraction_divmod(p, d):
    rem, quot = list(p.coeffs), [F(0)] * (len(p.coeffs) - len(d.coeffs) + 1)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + len(d.coeffs) - 1] / d.coeffs[-1]
        for j, c in enumerate(d.coeffs):
            rem[i + j] -= quot[i] * c
    return FractionPolynomial(quot), FractionPolynomial(rem[:len(d.coeffs) - 1])


def _fraction_root_counter(poly):
    """Sturm's theorem on the Fraction chain of poly, poly' over their gcd."""
    chain = [poly, poly.derivative()]
    while chain[-1].coeffs:
        chain.append(_fraction_divmod(chain[-2], chain[-1])[1].scale(-1))
    chain = [_fraction_divmod(s, chain[-2])[0] for s in chain[:-1]]

    def variations(x):
        signs = [v > 0 for v in (s(x) for s in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return lambda a, b: variations(a) - variations(b) - (poly(b) == 0)


def _fraction_power_integral(f, e, a, b):
    total = F(0)
    for u, w, piece in f.spans(a, b):
        for k, c in enumerate(piece.coeffs):
            total += c * (w ** (e + k) - u ** (e + k)) / (e + k)
    return total


WIDE = st.fractions(min_value=-50, max_value=50, max_denominator=60)
COEFFS = st.lists(WIDE, max_size=7)


@settings(max_examples=100, deadline=None)
@given(a=COEFFS, b=COEFFS, c=WIDE, x=WIDE)
def test_integer_kernel_matches_fraction_reference(a, b, c, x):
    p, q = Polynomial(a), Polynomial(b)
    rp, rq = FractionPolynomial(a), FractionPolynomial(b)
    assert p.coeffs == rp.coeffs
    for got, want in ((p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq),
                      (p.scale(c), rp.scale(c)),
                      (p.derivative(), rp.derivative()),
                      (p.antiderivative(), rp.antiderivative())):
        assert got.coeffs == want.coeffs
        assert got == Polynomial(want.coeffs)
        assert got.degree == len(want.coeffs) - 1
    assert p(x) == rp(x)
    assert p.antiderivative()(c) - p.antiderivative()(x) == \
        rp.antiderivative()(c) - rp.antiderivative()(x)


def test_polynomials_compare_in_lowest_terms():
    p = Polynomial((F(1, 2), F(3, 4)))
    assert (p.nums, p.den) == ((2, 3), 4)
    assert p == Polynomial((F(2, 4), F(6, 8))) == p.scale(2).scale(F(1, 2))
    assert hash(p) == hash(p.scale(3).scale(F(1, 3)))
    assert Polynomial(()).nums == () and Polynomial(()).den == 1
    assert (p - p).is_zero() and (p - p) == Polynomial((F(0),))


def test_equal_polynomials_hash_equal_and_share_one_dict_key():
    p = Polynomial((F(1, 2), F(3, 4)))
    q = Polynomial((F(2, 4), F(6, 8)))
    assert p == q and hash(p) == hash(q)
    assert {p: "first", q: "second"} == {p: "second"}
    assert len({p, q, p.scale(2)}) == 2


def test_equal_piecewise_polynomials_hash_equal_and_share_one_dict_key():
    def tent(scale):
        up = Polynomial((F(0), F(scale)))
        down = Polynomial((F(2 * scale), F(-scale)))
        return PiecewisePolynomial((F(0), F(1), F(2)), (up, down))

    f, g = tent(1), tent(F(3, 3))
    assert f is not g and f == g and hash(f) == hash(g)
    assert {f: "first", g: "second"} == {f: "second"}
    assert len({f, g, tent(2)}) == 2


@settings(max_examples=80, deadline=None)
@given(fab=piecewise_and_bounds(), e=st.integers(min_value=1, max_value=8))
def test_power_integral_matches_fraction_reference(fab, e):
    f, a, b = fab
    assert power_integral(f, e, a, b) == _fraction_power_integral(f, e, a, b)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.tuples(GRID, st.integers(min_value=1, max_value=4)),
                      max_size=5),
       extra=st.lists(SMALL, max_size=3),
       lead=st.fractions(min_value=-5, max_value=5,
                         max_denominator=7).filter(bool),
       ends=st.lists(st.fractions(min_value=-3, max_value=3,
                                  max_denominator=8),
                     min_size=2, max_size=2, unique=True))
def test_root_counts_match_fraction_reference(roots, extra, lead, ends):
    # multiple roots on a grid, times a small factor that may add
    # irrational or complex ones
    a, b = sorted(ends)
    poly = Polynomial((lead,)) * Polynomial(extra or [1])
    for r, mult in roots:
        for _ in range(mult):
            poly = poly * Polynomial((-r, F(1)))
    if poly.is_zero():
        return
    expected = _fraction_root_counter(FractionPolynomial(poly.coeffs))
    got = root_counter(poly)
    for lo, hi in ((a, b), (F(-3), F(3)), (a, (a + b) / 2)):
        assert got(lo, hi) == expected(lo, hi)
