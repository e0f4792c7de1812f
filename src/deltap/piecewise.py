"""Dense univariate polynomials and piecewise polynomials with exact
rational coefficients, held as integer numerators over one denominator.

A :class:`Polynomial` stores ``nums`` and ``den`` with coefficient k
equal to nums[k]/den, in lowest terms (den > 0 and gcd(den, *nums) = 1),
so arithmetic, evaluation and Sturm chains run on ints and build one
Fraction at the end; ``coeffs`` gives the Fraction tuple.  Evaluation is
exact: an int or a Fraction in gives a Fraction out, and a float raises
DomainError.  Instances are immutable and safe to share.

Every moment of a piecewise polynomial goes through one kernel:
``PiecewisePolynomial.spans`` checks the bounds and clips the pieces to
[a, b], and ``power_integral`` sums c (w**(e+k) - u**(e+k)) / (e+k) over
the clipped pieces and their terms: exactly for an integer or a
half-integer exponent, and for a float exponent within 2**-39 relative,
from ``math.fsum`` of the float terms when an a-priori bound certifies
it, else from a decimal evaluation of the exact closed form.
"""

from __future__ import annotations

import bisect
import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import (AccuracyError, DomainError, InvariantViolation,
                     RangeError, StructureError)
from .numeric import SqrtSum, as_fraction, check_positive_int

# High-order exact moments shift a curve up by p - 1, so the guard has to
# admit orders in the hundreds; it only exists to catch runaway degree
# growth from a looping multiplication.
MAX_DEGREE = 512


def _horner(nums: Sequence[int], xn: int, xd: int) -> int:
    """sum_k nums[k] xn**k xd**(deg-k): the value at xn/xd times xd**deg."""
    acc, pw = 0, 1
    for c in reversed(nums):
        acc = acc * xn + c * pw
        pw *= xd
    return acc


def _sign_at(nums: Sequence[int], x) -> int:
    """Sign of the polynomial with integer coefficients nums at x."""
    v = _horner(nums, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _make(nums: list, den: int) -> "Polynomial":
    """The polynomial sum nums[k] x**k / den."""
    return object.__new__(Polynomial)._set(nums, den)


class Polynomial:
    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        cs = [c if type(c) is int else as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list, den: int) -> "Polynomial":
        """Store nums / den in lowest terms, trailing zeros dropped."""
        while nums and nums[-1] == 0:
            nums.pop()
        if len(nums) - 1 > MAX_DEGREE:
            raise StructureError(f"polynomial degree {len(nums) - 1} exceeds "
                                 f"the supported maximum {MAX_DEGREE}")
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums, self.den = tuple(nums), den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in ascending order."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x):
        x = as_fraction(x)
        if not self.nums:
            return 0
        xd = x.denominator
        return Fraction(_horner(self.nums, x.numerator, xd),
                        self.den * xd ** self.degree)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _make(a, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + _make([-c for c in other.nums], other.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return _make(out, self.den * other.den)

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        return _make([v * c.numerator for v in self.nums],
                     self.den * c.denominator)

    def derivative(self) -> "Polynomial":
        return _make([i * c for i, c in enumerate(self.nums) if i > 0],
                     self.den)

    def antiderivative(self) -> "Polynomial":
        m = lcm(*range(1, len(self.nums) + 1))
        return _make([0] + [c * (m // (i + 1)) for i, c in enumerate(self.nums)],
                     self.den * m)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))


def lagrange_interpolate(xs: Sequence, ys: Sequence) -> Polynomial:
    """Exact interpolating polynomial through (xs[i], ys[i])."""
    xs = [as_fraction(x) for x in xs]
    ys = [as_fraction(y) for y in ys]
    if len(xs) != len(ys) or not xs:
        raise StructureError("interpolation needs matching nonempty nodes")
    if len(set(xs)) != len(xs):
        raise StructureError("interpolation nodes must be distinct")
    total = Polynomial(())
    for j, yj in enumerate(ys):
        if yj == 0:
            continue
        basis = Polynomial((1,))
        denom = Fraction(1)
        for i, xi in enumerate(xs):
            if i == j:
                continue
            basis = basis * Polynomial((-xi, 1))
            denom *= xs[j] - xi
        total = total + basis.scale(yj / denom)
    return total


def _primitive(nums: Sequence[int]) -> Sequence[int]:
    """nums over the positive gcd of its entries (nonzero nums)."""
    g = gcd(*nums)
    return nums if g == 1 else [c // g for c in nums]


def _neg_pseudo_rem(a: list, b: list) -> list:
    """A positive multiple of -(a rem b): the pseudo-remainder
    lc(b)**(deg a - deg b + 1) * a rem b, with its sign corrected."""
    rem, top, db = list(a), b[-1], len(b) - 1
    steps = len(a) - db
    for i in reversed(range(steps)):
        q = rem[i + db]
        rem = [top * c for c in rem[:i + db]]
        for j in range(db):
            rem[i + j] -= q * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return [-c for c in rem] if top > 0 or steps % 2 == 0 else rem


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer a divisible by the primitive integer b: by
    Gauss's lemma the quotient is integral, so every step divides exactly."""
    rem, db = list(a), len(b) - 1
    quot = [0] * (len(a) - db)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + db] // b[-1]
        for j, c in enumerate(b):
            rem[i + j] -= quot[i] * c
    return quot


def root_counter(poly: Polynomial):
    """(a, b) -> number of distinct roots of a nonzero poly in (a, b), by
    Sturm's theorem on the chain of poly and poly' divided by their gcd,
    so that a multiple root counts once (Basu, Pollack & Roy, ch. 2).

    The chain is a primitive pseudo-remainder sequence on the integer
    numerators: each member is a positive multiple of the one over the
    rationals, so the sign variations, and the counts, are the same."""
    chain = [_primitive(poly.nums)]
    nxt = poly.derivative().nums
    while nxt:
        chain.append(_primitive(nxt))
        nxt = _neg_pseudo_rem(chain[-2], chain[-1])
    chain = [_exact_quotient(s, chain[-1]) for s in chain]

    def variations(x):
        signs = [v > 0 for v in (_sign_at(s, x) for s in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return lambda a, b: (variations(a) - variations(b)
                         - (_sign_at(poly.nums, b) == 0))


def first_negative(poly: Polynomial, a, b) -> Fraction | None:
    """A rational x in [a, b] with poly(x) < 0, or None if there is none:
    a, then b, then the midpoints of a bisection that drops each part on
    which root counts show that poly >= 0."""
    nums = poly.nums
    for x in (a, b):
        if _sign_at(nums, x) < 0:
            return x
    if poly.degree < 2:  # the ends decide a line
        return None
    count, stack = root_counter(poly), [(a, b)]
    while stack:
        lo, hi = stack.pop()
        mid = (lo + hi) * Fraction(1, 2)
        if _sign_at(nums, mid) < 0:
            return mid
        roots = count(lo, hi)
        if roots > 1 or (roots == 1
                         and _sign_at(nums, lo) * _sign_at(nums, hi) == 0):
            stack += [(mid, hi), (lo, mid)]
    return None


class PiecewisePolynomial:
    """A piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    ``pieces[i]`` is the polynomial on [breakpoints[i], breakpoints[i+1]].
    Evaluation is right-continuous at interior breakpoints (the last
    breakpoint uses the final piece).  With ``continuous=True`` the
    constructor verifies exact agreement of adjacent pieces at every
    interior breakpoint.
    """

    __slots__ = ("breakpoints", "pieces", "continuous")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Polynomial],
                 continuous: bool = True):
        bps = tuple(as_fraction(b) for b in breakpoints)
        if len(bps) < 2:
            raise StructureError("need at least two breakpoints")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise InvariantViolation("breakpoints must be strictly increasing")
        if len(pieces) != len(bps) - 1:
            raise StructureError("need exactly one piece per interval")
        self.breakpoints = bps
        self.pieces = tuple(pieces)
        self.continuous = continuous
        if continuous:
            for i in range(1, len(bps) - 1):
                x = bps[i]
                left = self.pieces[i - 1](x)
                right = self.pieces[i](x)
                if left != right:
                    raise InvariantViolation(
                        f"discontinuity at breakpoint {x}: {left} != {right}",
                        witness=x)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, x) -> int:
        lo, hi = self.domain
        if x < lo or x > hi:
            raise RangeError(f"{x} outside domain [{lo}, {hi}]")
        if x == hi:
            return len(self.pieces) - 1
        return bisect.bisect_right(self.breakpoints, x) - 1

    def __call__(self, x):
        x = as_fraction(x)
        return self.pieces[self.piece_index(x)](x)

    def derivative(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [p.derivative() for p in self.pieces],
            continuous=False)

    def scale(self, c) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [p.scale(c) for p in self.pieces],
            continuous=self.continuous)

    def spans(self, a, b) -> list[tuple[Fraction, Fraction, Polynomial]]:
        """The (u, w, piece) of each piece whose part [u, w] of [a, b] has
        u < w; the one bounds check and clip of every integral."""
        a = as_fraction(a)
        b = as_fraction(b)
        lo, hi = self.domain
        if a > b:
            raise RangeError("integration bounds are reversed")
        if a < lo or b > hi:
            raise RangeError(f"[{a}, {b}] not inside [{lo}, {hi}]")
        out = []
        for u, w, piece in zip(self.breakpoints, self.breakpoints[1:],
                               self.pieces):
            u, w = max(a, u), min(b, w)
            if u < w:
                out.append((u, w, piece))
        return out

    def __eq__(self, other):
        return (isinstance(other, PiecewisePolynomial)
                and self.breakpoints == other.breakpoints
                and self.pieces == other.pieces)

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))


# The decimal path doubles its digits from 20 up to this cap.
MAX_DECIMAL_DIGITS = 2560
_TINY = sys.float_info.min  # the least normal double


def _end_residues(spans, e: Fraction) -> dict:
    """x -> R_x = sum_k c_k x**k / (e+k), netted over the spans ending at
    x (plus at w, minus at u): the integral is sum_x x**e R_x."""
    at = {}
    for u, w, piece in spans:
        q = Polynomial([c / (e + k) for k, c in enumerate(piece.coeffs)])
        for x, sign in ((w, 1), (u, -1)):
            at[x] = at.get(x, 0) + sign * q(x)
    return at


def _float_sum(spans, e: float) -> float | None:
    """The fast path of ``power_integral``, or None where it fails."""
    terms, top = [], 0
    try:
        for u, w, piece in spans:
            top = max(top, piece.degree)
            for x, den in ((w, piece.den), (u, -piece.den)):
                xf = float(x)
                head = xf ** e
                for k, c in enumerate(piece.nums):
                    if c and x:
                        q, power = c / den, head * xf ** k
                        terms.append(q * power / (e + k))
                        if not (_TINY <= min(xf, power, abs(q), abs(terms[-1]))
                                and max(power, abs(terms[-1])) < math.inf):
                            return None
        total = math.fsum(terms)
        bound = (e + top + 10) * 2.0 ** -53 * math.fsum(map(abs, terms))
    except OverflowError:
        return None
    kept = bound <= 2.0 ** -40 * abs(total) and _TINY <= abs(total)
    return total if kept else None


def _decimal_sum(spans, e: float) -> float:
    """The slow path of ``power_integral``, which decides the double
    range on the decimal total, before rounding: a float cannot tell an
    underflow from a true 0."""
    at = [(x, r) for x, r in _end_residues(spans, Fraction(e)).items()
          if x and r]
    E, digits = Decimal(e), 20
    while digits <= MAX_DECIMAL_DIGITS:
        with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            total = err = Decimal(0)
            for x, r in at:
                y = E * (Decimal(x.numerator) / x.denominator).ln()
                t = y.exp() * (Decimal(r.numerator) / r.denominator)
                total += t
                err += abs(t) * (E + 2 * abs(y) + len(at) + 3)
            if err.scaleb(1 - digits) * 2 ** 56 <= abs(total):
                out = float(total)
                if abs(out) == math.inf or 0 < abs(total) < _TINY:
                    way = "over" if abs(out) == math.inf else "under"
                    raise DomainError(f"the integral {way}flows doubles at "
                                      f"e = {e}; rescale first")
                return out
        digits *= 2
    raise AccuracyError(f"the integral at exponent {e} cancels past "
                        f"{MAX_DECIMAL_DIGITS} digits")


def power_integral(f: PiecewisePolynomial, e, a, b):
    """``integral_a^b x**(e-1) * f(x) dx`` termwise: the sum over
    ``f.spans(a, b)`` and over the terms c_k x**k of each piece of
    c_k (w**(e+k) - u**(e+k)) / (e+k).

    Exact for an integer e >= 1, in integers: with c_k = N_k / D and
    L = lcm(e, ..., e + deg), a piece contributes
    x**e * sum_k M_k x**k / (D L) at each end, M_k = N_k L / (e+k), so
    one Horner sum per end and one Fraction for the whole integral.

    A half-integer Fraction e = m + 1/2 > 0 or a float e > 0 needs a >= 0;
    the integral is sum_x x**e R_x over the distinct span ends x > 0, with
    R_x = sum_k c_k x**k/(e+k) exact (a float is a dyadic rational) and
    netted over the spans ending at x.  A half-integer gives a SqrtSum.
    A float gives a float within 2**-39 relative of the integral I (a
    normal double; past the double range DomainError), with u = 2**-53,
    libm's pow within 1 ulp, and the first path that certifies itself:
    - fast: the fsum S of the terms c_k x**(e+k) / (e+k) in floats, with
      x**(e+k) = pow(x, e) * pow(x, k), each within (e + k + 10) u: (e+k) u
      from rounding x, 2u per pow, u each for c_k, e + k and the three
      operations, and u for second order.  S is kept when every term and
      S are normal doubles and (e + deg + 10) u sum|terms| <= 2**-40 |S|;
      then |S - I| <= (2**-40 + u) |S| < 2**-39 |I|.
    - slow: sum_x exp(e ln x) R_x in decimal at P = 20, 40, 80, ...
      digits; with eta = 10**(1-P) a term is within (e + 2|e ln x| + 3) eta
      and the sum of m terms adds (m - 1) eta sum|terms|.  The sum is kept
      once that is at most 2**-56 of it, which leaves 2**-52 after the
      rounding to a float; it raises DomainError when it is nonzero and
      below the least normal double or rounds to inf, and past
      MAX_DECIMAL_DIGITS AccuracyError.
    Any other e raises DomainError.
    """
    if isinstance(e, Fraction):
        if e.denominator != 2 or e < 0:
            raise DomainError(f"exponent {e} is not a positive half-integer")
        m = e.numerator // 2
        return sum((SqrtSum.sqrt(x).scale(x ** m * r)
                    for x, r in _end_residues(f.spans(a, b), e).items()),
                   SqrtSum.from_rational(0))
    if isinstance(e, float):
        if not 0 < e < math.inf:
            raise DomainError(f"exponent {e} is not positive and finite")
        spans = f.spans(a, b)
        if spans and spans[0][0] < 0:
            raise DomainError("a real power needs a nonnegative domain")
        total = _float_sum(spans, e)
        return _decimal_sum(spans, e) if total is None else total
    check_positive_int(e, "exponent e")
    num, den = 0, 1
    for u, w, piece in f.spans(a, b):
        if not piece.nums:
            continue
        top = e + piece.degree
        m = lcm(*range(e, top + 1))
        terms = [c * (m // (e + k)) for k, c in enumerate(piece.nums)]
        un, ud, wn, wd = u.numerator, u.denominator, w.numerator, w.denominator
        span = (wn ** e * _horner(terms, wn, wd) * ud ** top
                - un ** e * _horner(terms, un, ud) * wd ** top)
        span_den = piece.den * m * (ud * wd) ** top
        num, den = num * span_den + span * den, den * span_den
    return Fraction(num, den)


def integrate_monomial_weighted(f: PiecewisePolynomial, p: int, a, b) -> Fraction:
    """Exact ``integral_a^b x**(p-1) * f(x) dx`` for integer p >= 1."""
    return power_integral(f, check_positive_int(p, "exponent p"), a, b)


def integrate_real_power(f: PiecewisePolynomial, p: float, a, b) -> float:
    """Float ``integral_a^b x**(p-1) * f(x) dx`` for real p >= 1 and
    a >= 0, within 2**-39 relative: ``power_integral`` at the float p."""
    p = float(p)
    if p < 1.0:
        raise DomainError("the exponent p must be at least 1")
    return power_integral(f, p, a, b)
