"""Scalar numerics underneath the exact layer.

Most of the library computes in :class:`fractions.Fraction`.  This module
collects the few pieces that cannot stay rational: log-gamma, adaptive
quadrature for real exponents, and exact sign decisions for finite sums

    c_1 * sqrt(k_1) + ... + c_r * sqrt(k_r),   c_i rational, k_i squarefree,

which arise when half-integer moments of rational data must be compared
without rounding.  Square roots of distinct squarefree integers are
linearly independent over the rationals, so such a sum is zero exactly
when every coefficient is zero; otherwise interval refinement with
integer square roots decides the sign in finitely many steps.

Everything here is deterministic and side-effect free.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction

from .errors import AccuracyError, DomainError

MAX_QUADRATURE_EVALS = 1_000_000

# Largest n with n! exactly representable below the float overflow bound.
_EXACT_FACTORIAL_LIMIT = 170


def check_positive_int(p, what: str) -> int:
    """``p`` itself when it is an int >= 1 (not a bool); else DomainError."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise DomainError(f"{what} must be a positive integer, got {p!r}")
    return p


def check_grid(grid, what: str) -> tuple[int, ...]:
    """``grid`` as a tuple of ints when its entries are integral, and it is
    nonempty, >= 1 and strictly increasing; else DomainError naming
    ``what``."""
    grid = tuple(grid)
    out = tuple(int(x) for x in grid)
    if (out != grid or not out or out[0] < 1
            or any(b <= a for a, b in zip(out, out[1:]))):
        raise DomainError(f"the {what} must be strictly increasing, >= 1")
    return out


def as_fraction(x) -> Fraction:
    """Coerce an int, a string like ``"3/4"`` or a Fraction to Fraction.

    Floats are rejected on purpose: silently converting a float would
    launder rounding error into the exact layer.  So are bools, which
    are ints to Python but no coordinate or value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {x!r} as an exact rational") from exc
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def float_root(x, p) -> float:
    """The p-th root of a positive exact rational x as a float:
    ``float(x) ** (1.0 / p)`` when x is 0 or a normal float, else from the
    logs of its numerator and denominator, which take ints of any size."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if sys.float_info.min <= f < math.inf or not x:
        return f ** (1.0 / p)
    return math.exp((math.log(x.numerator) - math.log(x.denominator)) / p)


def log_gamma(x) -> float:
    """Natural log of the gamma function on the positive reals.

    Integer arguments up to 170 go through the exact factorial, so e.g.
    ``log_gamma(5) == math.log(24)`` holds to the last bit.  Everything
    else is delegated to ``math.lgamma`` (relative error within a few ulp).
    """
    if isinstance(x, float) and not x.is_integer():
        xf = x
        if xf <= 0.0:
            raise DomainError("log_gamma requires a positive argument")
        return math.lgamma(xf)
    if isinstance(x, Fraction) and x.denominator != 1:
        if x <= 0:
            raise DomainError("log_gamma requires a positive argument")
        return math.lgamma(float(x))
    n = int(x)
    if n != x:
        raise DomainError(f"cannot interpret {x!r} as a real number")
    if n <= 0:
        raise DomainError("log_gamma requires a positive argument")
    if n <= _EXACT_FACTORIAL_LIMIT:
        return math.log(math.factorial(n - 1))
    return math.lgamma(float(n))


# --------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (7-15 pair, interval bisection).
#
# Node/weight constants are the standard 15-point Kronrod extension of the
# 7-point Gauss rule on [-1, 1]; odd-indexed abscissae are the Gauss nodes.
# The test suite checks polynomial exactness through degree 22, which any
# typo here would break.
# --------------------------------------------------------------------------

_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One 15-point Kronrod panel on [a, b]: (integral, error estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        f1 = f(c - x)
        f2 = f(c + x)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * h, abs(resk - resg) * abs(h)


def adaptive_quadrature(f, a: float, b: float, tol: float) -> float:
    """Integrate ``f`` over [a, b] to absolute accuracy ``tol``.

    Gauss-Kronrod 7-15 panels with bisection of the worst panel.  Raises
    AccuracyError if the evaluation budget runs out before the summed
    error estimate drops below ``tol``.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if a == b:
        return 0.0
    val, err = _gk15(f, a, b)
    evals = 15
    # Heap of (-error, order, a, b, value); order breaks exact ties
    # deterministically.
    order = 0
    heap = [(-err, order, a, b, val)]
    total_val = val
    total_err = err
    while total_err > tol:
        if evals + 30 > MAX_QUADRATURE_EVALS:
            raise AccuracyError(
                f"quadrature on [{a}, {b}] stalled at error {total_err:.3e} "
                f"> tol {tol:.3e} after {evals} evaluations")
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        total_err += neg_err  # removes the panel's error
        total_val -= old_val
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        for v, e, x, y in ((v1, e1, lo, mid), (v2, e2, mid, hi)):
            order += 1
            heapq.heappush(heap, (-e, order, x, y, v))
            total_val += v
            total_err += e
    return total_val


# --------------------------------------------------------------------------
# Exact sums of square roots of rationals.
# --------------------------------------------------------------------------


def squarefree_decompose(k: int) -> tuple[int, int]:
    """Write ``k = s*s*r`` with r squarefree.  Returns (s, r); k >= 1."""
    if k < 1:
        raise DomainError("squarefree decomposition needs a positive integer")
    s = 1
    r = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * k


class SqrtSum:
    """An exact number of the form ``sum_i c_i * sqrt(r_i)``.

    ``r_i`` are distinct squarefree positive integers (``r = 1`` is the
    rational part) and ``c_i`` nonzero rationals.  Supports addition,
    subtraction, scaling by rationals, and an exact ``sign``; that is all
    the rounding-free comparisons in this package need.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self.terms = {r: c for r, c in terms.items() if c != 0}

    @classmethod
    def from_rational(cls, q) -> "SqrtSum":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, q) -> "SqrtSum":
        q = Fraction(q)
        if q < 0:
            raise DomainError("sqrt of a negative rational")
        if q == 0:
            return cls({})
        s, r = squarefree_decompose(q.numerator * q.denominator)
        return cls({r: Fraction(s, q.denominator)})

    def scale(self, c) -> "SqrtSum":
        c = Fraction(c)
        return SqrtSum({r: v * c for r, v in self.terms.items()})

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, Fraction(0)) + c
        return SqrtSum(out)

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        return self + other.scale(-1)

    def __neg__(self) -> "SqrtSum":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.terms

    def _enclosures(self):
        """Nested intervals [lo, hi] around the value, from every square
        root rounded down and up to 16, 32, ..., 4096 fractional bits."""
        bits = 16
        while bits <= 4096:
            lo = Fraction(0)
            hi = Fraction(0)
            scale = 1 << bits
            for r, c in self.terms.items():
                root_lo = Fraction(math.isqrt(r * scale * scale), scale)
                root_hi = root_lo + Fraction(1, scale)
                if c > 0:
                    lo += c * root_lo
                    hi += c * root_hi
                else:
                    lo += c * root_hi
                    hi += c * root_lo
            yield lo, hi
            bits *= 2
        raise AccuracyError("sign refinement failed to separate from zero")

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        Nonzero coefficient vectors give a nonzero value (linear
        independence of square roots of distinct squarefree integers), so
        interval refinement always terminates.
        """
        if not self.terms:
            return 0
        for lo, hi in self._enclosures():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def __float__(self) -> float:
        """The value to within about 2^-41 relative: the float sum of the
        terms when it does not cancel by more than 2^12, else the midpoint
        of an enclosure narrower than 2^-54 of it, rounded once."""
        terms = [float(c) * math.sqrt(r) for r, c in self.terms.items()]
        total = math.fsum(terms)
        if math.fsum(map(abs, terms)) <= 4096 * abs(total):
            return total
        for lo, hi in self._enclosures():
            mid = (lo + hi) / 2
            if (hi - lo) * 2 ** 54 < abs(mid):
                return float(mid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqrtSum):
            return NotImplemented
        return (self - other).is_zero()

    def __le__(self, other: "SqrtSum") -> bool:
        return (self - other).sign() <= 0

    def __lt__(self, other: "SqrtSum") -> bool:
        return (self - other).sign() < 0

    def __ge__(self, other: "SqrtSum") -> bool:
        return (self - other).sign() >= 0

    def __gt__(self, other: "SqrtSum") -> bool:
        return (self - other).sign() > 0

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "SqrtSum(0)"
        parts = [f"{c}*sqrt({r})" if r != 1 else f"{c}"
                 for r, c in sorted(self.terms.items())]
        return "SqrtSum(" + " + ".join(parts) + ")"
