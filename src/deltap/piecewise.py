"""Dense univariate polynomials and piecewise polynomials over Fraction.

Coefficients are exact rationals in ascending order.  Evaluation keeps
the type of the argument: a Fraction in gives a Fraction out, a float in
gives a float out.  Instances are immutable and safe to share.

Every moment of a piecewise polynomial goes through one kernel:
``PiecewisePolynomial.spans`` checks the bounds and clips the pieces to
[a, b], and ``power_integral`` sums c (w**(e+k) - u**(e+k)) / (e+k) over
the clipped pieces and their terms, exactly for an integer exponent.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, InvariantViolation, RangeError, StructureError
from .numeric import adaptive_quadrature, as_fraction, check_positive_int

# High-order exact moments shift a curve up by p - 1, so the guard has to
# admit orders in the hundreds; it only exists to catch runaway degree
# growth from a looping multiplication.
MAX_DEGREE = 512


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > MAX_DEGREE:
            raise StructureError(
                f"polynomial degree {len(cs) - 1} exceeds the supported "
                f"maximum {MAX_DEGREE}")
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        return Polynomial(v * c for v in self.coeffs)

    def shift_up(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Polynomial((Fraction(0),) * k + self.coeffs)

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def antiderivative(self) -> "Polynomial":
        return Polynomial([Fraction(0)]
                          + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integrate(self, a, b) -> Fraction:
        F = self.antiderivative()
        return F(as_fraction(b)) - F(as_fraction(a))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


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


def _divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of p by a nonzero d."""
    rem, quot = list(p.coeffs), [Fraction(0)] * (len(p.coeffs) - d.degree)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + d.degree] / d.coeffs[-1]
        for j, c in enumerate(d.coeffs):
            rem[i + j] -= quot[i] * c
    return Polynomial(quot), Polynomial(rem[:d.degree])


def root_counter(poly: Polynomial):
    """(a, b) -> number of distinct roots of a nonzero poly in (a, b), by
    Sturm's theorem on the chain of poly and poly' divided by their gcd,
    so that a multiple root counts once (Basu, Pollack & Roy, ch. 2)."""
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero():
        chain.append(_divmod(chain[-2], chain[-1])[1].scale(-1))
    chain = [_divmod(s, chain[-2])[0] for s in chain[:-1]]

    def variations(x):
        signs = [v > 0 for v in (s(x) for s in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return lambda a, b: variations(a) - variations(b) - (poly(b) == 0)


def first_negative(poly: Polynomial, a, b) -> Fraction | None:
    """A rational x in [a, b] with poly(x) < 0, or None if there is none:
    a, then b, then the midpoints of a bisection that drops each part on
    which root counts show that poly >= 0."""
    for x in (a, b):
        if poly(x) < 0:
            return x
    if poly.degree < 2:  # the ends decide a line
        return None
    count, stack = root_counter(poly), [(a, b)]
    while stack:
        lo, hi = stack.pop()
        mid = (lo + hi) * Fraction(1, 2)
        if poly(mid) < 0:
            return mid
        roots = count(lo, hi)
        if roots > 1 or roots == 1 and poly(lo) * poly(hi) == 0:
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
        if isinstance(x, float):
            xf = as_fraction_from_float(x, self)
            return float(self.pieces[self.piece_index(xf)](x))
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

    def integrate(self, a, b) -> Fraction:
        return power_integral(self, 1, a, b)

    def __eq__(self, other):
        return (isinstance(other, PiecewisePolynomial)
                and self.breakpoints == other.breakpoints
                and self.pieces == other.pieces)

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        return (f"PiecewisePolynomial({[str(b) for b in self.breakpoints]}, "
                f"{len(self.pieces)} pieces)")


def as_fraction_from_float(x: float, f: PiecewisePolynomial) -> Fraction:
    """Clamp a float evaluation point into the exact domain.

    Floats that round barely outside the domain (from upstream float
    arithmetic) are snapped to the nearest endpoint; anything further out
    is a genuine range error.
    """
    q = Fraction(x)
    lo, hi = f.domain
    if q < lo:
        if float(lo) - x > 1e-9 * max(1.0, abs(float(lo))):
            raise RangeError(f"{x} outside domain [{lo}, {hi}]")
        return lo
    if q > hi:
        if x - float(hi) > 1e-9 * max(1.0, abs(float(hi))):
            raise RangeError(f"{x} outside domain [{lo}, {hi}]")
        return hi
    return q


def power_integral(f: PiecewisePolynomial, e, a, b):
    """``integral_a^b x**(e-1) * f(x) dx`` termwise: the sum over
    ``f.spans(a, b)`` and over the terms c_k x**k of each piece of
    c_k (w**(e+k) - u**(e+k)) / (e+k).

    Exact for an integer e >= 1; a float for a float e, which needs
    e + k > 0 on every term and a >= 0.
    """
    num = float if isinstance(e, float) else Fraction
    total = num(0)
    for u, w, piece in f.spans(a, b):
        u, w = num(u), num(w)
        for k, c in enumerate(piece.coeffs):
            if c:
                total += num(c) * (w ** (e + k) - u ** (e + k)) / (e + k)
    return total


def integrate_monomial_weighted(f: PiecewisePolynomial, p: int, a, b) -> Fraction:
    """Exact ``integral_a^b x**(p-1) * f(x) dx`` for integer p >= 1."""
    return power_integral(f, check_positive_int(p, "exponent p"), a, b)


def integrate_real_power(f: PiecewisePolynomial, p: float, a, b,
                         tol: float = 1e-10) -> float:
    """``integral_a^b x**(p-1) * f(x) dx`` for real p >= 1, to +-tol.

    Adaptive Gauss-Kronrod per piece.  The domain must sit in x >= 0 so
    that the real power is defined.
    """
    p = float(p)
    if p < 1.0:
        raise DomainError("the exponent p must be at least 1")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    spans = [(float(u), float(w), piece) for u, w, piece in f.spans(a, b)]
    if as_fraction(a) < 0:
        raise DomainError("real-power integration needs a nonnegative domain")
    if not spans:
        return 0.0
    total_len = sum(w - u for u, w, _ in spans)
    result = 0.0
    for u, w, piece in spans:
        coeffs = tuple(float(c) for c in piece.coeffs)

        def integrand(x, cs=coeffs, q=p - 1.0):
            acc = 0.0
            for c in reversed(cs):
                acc = acc * x + c
            return x ** q * acc

        local_tol = tol * (w - u) / total_len
        result += adaptive_quadrature(integrand, u, w, local_tol)
    return result
