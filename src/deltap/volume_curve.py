"""Volume curves and their moment statistics.

A :class:`VolumeCurve` records x -> vol(L - xF) for a polarized pair
together with the ambient dimension and the total volume V = vol(L).
From it the library derives the support threshold tau, the moments
s_p (the p-th moment of the vanishing-order distribution d(-vol)/V),
the normalized statistic h_stat, the auxiliary family k_stat and the
radial profile of the curve.

Rational quantities are exact.  Every moment reads the pieces of the
curve or of its density through the termwise kernel
``piecewise.power_integral``: integer orders exactly, half-integer
orders as sums of square roots, and other real orders as floats within
a stated relative bound; nothing exact is ever recomputed from floats.
A curve builds its normalized forms, curve/V and -curve'/V, once on
first use, and the real orders read them, so no float holds V and the
kernel alone decides the double range.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .errors import DomainError, InvariantViolation, StructureError
from .numeric import SqrtSum, as_fraction, check_positive_int, float_root
from .piecewise import (PiecewisePolynomial, Polynomial, first_negative,
                        integrate_monomial_weighted, power_integral,
                        root_counter)


# Highest degree a VolumeCurve validates: its Sturm chains grow steeply
# with degree (1 - x - 10**30 * prod_k (x - k/N) takes about 0.3 s at
# degree 65 and 14 s at 129 on one x86-64 core under CPython 3.11).
# Toric curves have degree n.
MAX_CURVE_DEGREE = 65


def _check_root_concave(f: PiecewisePolynomial, k: int, what: str) -> None:
    """Decide that f**(1/k) is concave, for f > 0 inside its domain: on each
    piece k*f*f'' - (k-1)*f'**2, of the sign of (f**(1/k))'', is <= 0, and
    at each interior breakpoint f is continuous and its slope does not rise.
    For k = 1 that is f*f'' <= 0, so f'' alone, of half the degree, decides."""
    bps = f.breakpoints
    for lo, hi, piece in zip(bps, bps[1:], f.pieces):
        d = piece.derivative()
        if k == 1:
            test = d.derivative().scale(-1)
        else:
            test = (d * d).scale(k - 1) - (piece * d.derivative()).scale(k)
        x = first_negative(test, lo, hi)
        if x is not None:
            raise InvariantViolation(f"{what}**(1/{k}) is not concave at x = {x}",
                                     witness={"x": str(x)})
    for x, left, right in zip(bps[1:-1], f.pieces, f.pieces[1:]):
        if left(x) != right(x) or left.derivative()(x) < right.derivative()(x):
            raise InvariantViolation(
                f"{what}**(1/{k}) is not concave at breakpoint x = {x}",
                witness={"x": str(x)})


def _log_binomial(n: int, p: float) -> float:
    """log C(n+p, p) = sum_j log(1 + p/j), j = 1..n, for a real p."""
    return math.fsum(math.log1p(p / j) for j in range(1, n + 1))


def _scaled_integral(c: float, f: PiecewisePolynomial, e: float, tau) -> float:
    """c * integral_0^tau x**(e-1) f(x) dx for a float c > 0, within
    2**-38 relative: the kernel's 2**-39 and one rounding.  The kernel
    decides the double range: where its integral or the product leaves
    it, the kernel runs again on c * f, which is exact since a float is a
    dyadic rational."""
    with contextlib.suppress(DomainError):
        out = c * power_integral(f, e, 0, tau)
        if sys.float_info.min <= out < math.inf:
            return out
    return power_integral(f.scale(Fraction(c)), e, 0, tau)


def barycenter_bounds(n: int, tau: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Exact bounds tau**p / C(n+p, p) <= s_p <= n/(n+p) tau**p for a
    volume curve of dimension n and support threshold tau."""
    check_positive_int(p, "moment order p")
    return (Fraction(1, math.comb(n + p, p)) * tau ** p,
            Fraction(n, n + p) * tau ** p)


class VolumeCurve:
    """Exact model of x -> vol(L - xF) on [0, tau].

    ``n`` is the dimension, ``V`` the total volume (= curve(0)), and
    ``curve`` a nonincreasing piecewise polynomial vanishing at tau whose
    n-th root is concave (both decided exactly).  tau is positive, as it
    is for every nontrivial valuation of a big class.
    """

    __slots__ = ("n", "V", "curve", "tau", "_normal")

    def __init__(self, n: int, V, curve: PiecewisePolynomial):
        self.n = check_positive_int(n, "dimension")
        self.V = as_fraction(V)
        if self.V <= 0:
            raise InvariantViolation("total volume must be positive")
        self.curve = curve
        lo, hi = curve.domain
        if lo != 0:
            raise InvariantViolation("a volume curve starts at 0")
        if hi <= 0:
            raise InvariantViolation("tau must be positive")
        self.tau = hi
        self._normal = None
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        c = self.curve
        degree = max(piece.degree for piece in c.pieces)
        if degree > MAX_CURVE_DEGREE:
            raise DomainError(f"volume curve degree {degree} is over the "
                              f"budget of {MAX_CURVE_DEGREE}")
        if c(Fraction(0)) != self.V:
            raise InvariantViolation(
                f"curve(0) = {c(Fraction(0))} does not equal V = {self.V}")
        if c(self.tau) != 0:
            raise InvariantViolation(f"curve(tau) = {c(self.tau)} is nonzero")
        bps = c.breakpoints
        for lo, hi, piece in zip(bps, bps[1:], c.pieces):
            x = first_negative(piece.derivative().scale(-1), lo, hi)
            if x is not None:
                raise InvariantViolation(f"volume curve increases near x = {x}",
                                         witness={"x": str(x)})
        # Nonincreasing with curve(tau) = 0, the curve is positive before
        # tau unless its last piece vanishes identically.
        if c.pieces[-1].is_zero():
            raise InvariantViolation(
                f"volume curve vanishes at x = {bps[-2]} before tau",
                witness={"x": str(bps[-2])})
        _check_root_concave(c, self.n, "curve")

    def _normalized(self) -> tuple[PiecewisePolynomial, PiecewisePolynomial,
                                   PiecewisePolynomial]:
        """(curve/V, -curve'/V, w), exact and built once on first use, so
        that no float holds V: the curve and the density of the
        vanishing-order distribution, and the weight w of k_stat, which is
        the density for n >= 2 and the constant 1 for n = 1."""
        if self._normal is None:
            density = self.curve.derivative().scale(-1 / self.V)
            weight = density if self.n > 1 else PiecewisePolynomial(
                (0, self.tau), (Polynomial((1,)),))
            self._normal = (self.curve.scale(1 / self.V), density, weight)
        return self._normal

    # -- exact moments -------------------------------------------------

    def s_p(self, p: int) -> Fraction:
        """Exact p-th moment (p/V) * integral of x**(p-1) * curve(x)."""
        check_positive_int(p, "moment order p")
        return (Fraction(p) / self.V
                * integrate_monomial_weighted(self.curve, p, 0, self.tau))

    def s_p_from_density(self, p: int) -> Fraction:
        """Same moment through the normalized density -curve'/V; an
        independent route (integration by parts) used for cross-checks."""
        check_positive_int(p, "moment order p")
        return integrate_monomial_weighted(self._normalized()[1], p + 1, 0,
                                           self.tau)

    def s_p_half(self, p) -> SqrtSum:
        """Exact moment for half-integer p >= 1, one root per breakpoint."""
        p = as_fraction(p)
        if p.denominator != 2 or p < 1:
            raise DomainError("s_p_half needs a half-integer p >= 1")
        return power_integral(self.curve, p, 0, self.tau).scale(p / self.V)

    def s_p_real(self, p: float) -> float:
        """Moment for real p >= 1 within 2**-38 relative: p times the
        kernel's integral of x**(p-1) curve(x)/V; DomainError when the
        moment is not a normal double."""
        p = float(p)
        if p < 1.0:
            raise DomainError("moment order p must be at least 1")
        return _scaled_integral(p, self._normalized()[0], p, self.tau)

    # -- derived statistics ---------------------------------------------

    def barycenter_bounds(self, p):
        """Two-sided bounds for s_p from tau alone.

        Integer p gives exact rationals (tau^p / C(n+p, p) below,
        n/(n+p) tau^p above); real p gives floats, with log C(n+p, p) as
        r_stat takes it.
        """
        n = self.n
        if isinstance(p, int) and not isinstance(p, bool):
            return barycenter_bounds(n, self.tau, p)
        p = float(p)
        if p < 1.0:
            raise DomainError("moment order p must be at least 1")
        tau = self.tau  # tau**p nears the end of the doubles past e**+-700
        log_tp = p * (math.log(tau.numerator) - math.log(tau.denominator))
        if abs(log_tp) > 700.0:
            raise DomainError(f"tau**p {'over' if log_tp > 0 else 'under'}"
                              "flows doubles for this tau and p; rescale first")
        lower = math.exp(log_tp - _log_binomial(n, p))
        upper = n / (n + p) * math.exp(log_tp)
        return lower, upper

    def h_stat_power(self, p: int) -> Fraction:
        """Exact h_stat(p)**p = (n+p)/n * s_p; use cross powers to compare
        h_stat values at integer orders without roots."""
        check_positive_int(p, "moment order p")
        return Fraction(self.n + p, self.n) * self.s_p(p)

    def h_stat(self, p: float) -> float:
        """Normalized moment statistic ((n+p)/n * s_p)**(1/p), within
        2**-37 relative at a real order: the two roots and their product
        add a few units of 2**-53 to the 2**-38 of s_p_real, and their
        product is finite wherever s_p is."""
        pf = float(p)
        if pf < 1.0:
            raise DomainError("moment order p must be at least 1")
        if pf.is_integer():
            return float_root(self.h_stat_power(int(pf)), pf)
        s = self.s_p_real(pf)
        return ((self.n + pf) / self.n) ** (1.0 / pf) * s ** (1.0 / pf)

    def k_stat(self, s: float) -> float:
        """The moment family K(s) = s * integral of x**(s-1) g(x)**(n-1),
        with g the ratio of the radial profile to x.

        K(s) = s * integral of x**(s-n) w(x), with w the density -curve'/V
        for n >= 2, where the exponents are positive exactly when
        s > n - 1, the domain boundary, and w = 1 for n = 1, where
        K(s) = tau**s regardless of the curve (log-linear; the identity
        below then holds exactly on the linear curves, the only ones of
        flag type in dimension one).  K(n) = n identically for n >= 2 and
        (K(n+p)/K(n))**(1/p) equals h_stat(p) on curves carrying a radial
        profile.  Within 2**-38 relative, from the kernel at the exponent
        s - n + 1, which a float holds exactly; DomainError when K(s) is
        not a normal double.
        """
        s = float(s)
        if s <= self.n - 1:
            raise DomainError(f"k_stat needs s > n - 1 = {self.n - 1}")
        return _scaled_integral(s, self._normalized()[2], s - self.n + 1,
                                self.tau)

    def r_stat(self, p: float) -> float:
        """Scaled moment ((n+p)!/(n! p!) s_p)**(1/p), reported by scans;
        at a real order within 2**-37 relative, as h_stat.

        Monotonicity of this statistic is an open question; nothing in
        the library asserts it.
        """
        pf = float(p)
        if pf < 1.0:
            raise DomainError("moment order p must be at least 1")
        n = self.n
        if pf.is_integer():
            pint = int(pf)
            return float_root(math.comb(n + pint, pint) * self.s_p(pint), pf)
        return math.exp((_log_binomial(n, pf) + math.log(self.s_p_real(pf)))
                        / pf)

    # -- profile and transforms ------------------------------------------

    def radial_profile(self) -> "RadialProfile":
        return RadialProfile(self.n, self._normalized()[1])

    def rescale_valuation(self, c) -> "VolumeCurve":
        """Curve of (L, cF): x -> vol(L - (cx)F), so tau scales by 1/c and
        s_p by c**(-p)."""
        c = as_fraction(c)
        if c <= 0:
            raise DomainError("rescaling factor must be positive")
        breaks = [x / c for x in self.curve.breakpoints]
        pieces = [Polynomial(tuple(coef * c ** k
                                   for k, coef in enumerate(piece.coeffs)))
                  for piece in self.curve.pieces]
        return VolumeCurve(self.n, self.V,
                           PiecewisePolynomial(breaks, pieces, continuous=True))

    # -- serialization and identity ---------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "V": str(self.V), "tau": str(self.tau),
                "breakpoints": [str(x) for x in self.curve.breakpoints],
                "pieces": [[str(c) for c in piece.coeffs]
                           for piece in self.curve.pieces]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "VolumeCurve":
        try:
            n, V, tau = data["n"], data["V"], as_fraction(data["tau"])
            breaks, pieces = data["breakpoints"], data["pieces"]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed volume curve JSON: {exc}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise StructureError(f"curve n must be an integer: {n!r}")
        if not (isinstance(breaks, list) and isinstance(pieces, list)
                and all(isinstance(cs, list) for cs in pieces)):
            raise StructureError("curve breakpoints and pieces must be lists")
        curve = PiecewisePolynomial(breaks, [Polynomial(cs) for cs in pieces])
        if curve.domain[1] != tau:
            raise StructureError(f"tau {tau} is not the last breakpoint")
        return cls(n, V, curve)

    def __eq__(self, other):
        return (isinstance(other, VolumeCurve) and self.n == other.n
                and self.V == other.V and self.tau == other.tau
                and self.curve == other.curve)

    def __hash__(self):
        return hash((self.n, self.V, self.tau, self.curve))


class _RadialFields(NamedTuple):
    n: int
    fpow: PiecewisePolynomial


class RadialProfile(_RadialFields):
    """The density of a volume curve in radial normal form.

    ``fpow`` represents f(x)**(n-1) = -curve'(x)/V.  It integrates to one
    exactly and is nonnegative; for n >= 2 it is positive inside its
    domain and its root f is concave, which is what distinguishes curves
    of flag type from arbitrary monotone data.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n, fpow):
        lo, hi = fpow.domain
        total = power_integral(fpow, 1, lo, hi)
        if total != 1:
            raise InvariantViolation(
                f"radial density integrates to {total}, not 1")
        bps = fpow.breakpoints
        for a, b, p in zip(bps, bps[1:], fpow.pieces):
            x = first_negative(p, a, b)
            if x is not None:
                raise InvariantViolation(
                    f"radial density negative at x = {x}: "
                    "the curve has an increasing segment", witness={"x": str(x)})
            # A concave root that vanishes inside its domain vanishes on
            # all of it; the pointwise test below cannot see such a zero.
            if n >= 2 and (p.is_zero() or root_counter(p)(a, b)
                           or b < bps[-1] and p(b) == 0):
                raise InvariantViolation(
                    "radial density vanishes inside its domain")
        if n >= 2:
            _check_root_concave(fpow, n - 1, "radial density")
        return super().__new__(cls, n, fpow)


def curve_from_profile(n: int, breakpoints, values) -> VolumeCurve:
    """Volume curve with radial profile the piecewise-linear interpolant
    of ``values`` at ``breakpoints``.

    The profile must be concave (nonincreasing slopes), nonnegative, and
    positive somewhere; the curve is then x -> integral_x^tau f**(n-1),
    with total volume integral_0^tau f**(n-1).  Concavity of f forces
    the n-th-root concavity of the curve, so the result is always a
    valid VolumeCurve.
    """
    check_positive_int(n, "dimension")
    breaks = [as_fraction(b) for b in breakpoints]
    vals = [as_fraction(v) for v in values]
    if len(breaks) != len(vals) or len(breaks) < 2:
        raise DomainError("need matching breakpoints and values, at least 2")
    if breaks[0] != 0:
        raise DomainError("the profile domain must start at 0")
    if any(a >= b for a, b in zip(breaks, breaks[1:])):
        raise DomainError("breakpoints must increase strictly")
    if any(v < 0 for v in vals):
        raise InvariantViolation("profile values must be nonnegative")
    if all(v == 0 for v in vals):
        raise InvariantViolation("profile must be positive somewhere")
    slopes = [(v1 - v0) / (b1 - b0) for (b0, b1, v0, v1)
              in zip(breaks, breaks[1:], vals, vals[1:])]
    if any(s0 < s1 for s0, s1 in zip(slopes, slopes[1:])):
        raise InvariantViolation("profile slopes must be nonincreasing")

    lines = [Polynomial((v0 - s * b0, s))
             for b0, v0, s in zip(breaks, vals, slopes)]
    powers = []
    for line in lines:
        acc = Polynomial((Fraction(1),))
        for _ in range(n - 1):
            acc = acc * line
        powers.append(acc)

    tail = Fraction(0)
    pieces_rev = []
    for i in range(len(powers) - 1, -1, -1):
        g = powers[i]
        anti = g.antiderivative()
        const = tail + anti(breaks[i + 1])
        piece = Polynomial((const,)) - anti
        pieces_rev.append(piece)
        tail = piece(breaks[i])
    pieces = list(reversed(pieces_rev))
    curve = PiecewisePolynomial(breaks, pieces, continuous=True)
    return VolumeCurve(n, curve(Fraction(0)), curve)


def random_admissible_curve(rng: Random, n: int) -> VolumeCurve:
    """Random valid VolumeCurve, built from a random concave radial
    profile (n >= 2) or as a random linear curve (n = 1, the only
    admissible shape there).

    Deterministic given the Random instance; used by the self-check
    command and the property-test corpus.
    """
    check_positive_int(n, "dimension")
    k = rng.randint(1, 4)
    tau_den = rng.randint(1, 3)
    tau = Fraction(rng.randint(1, 4), tau_den)
    cuts = sorted(rng.sample(range(1, 12), k - 1)) if k > 1 else []
    breaks = [Fraction(0)] + [tau * Fraction(c, 12) for c in cuts] + [tau]

    den = rng.randint(1, 6)
    raw = sorted({rng.randint(-6, 6) for _ in range(k)}, reverse=True)
    while len(raw) < k:
        raw.append(raw[-1] - rng.randint(1, 3))
    slopes = [Fraction(s, den) for s in raw]

    if n == 1:
        # The admissible curves in dimension one are exactly the linear
        # ones (the profile power is the constant 1), so only the scale
        # and the threshold vary.
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        curve = PiecewisePolynomial(
            (Fraction(0), tau),
            (Polynomial((scale * tau, -scale)),))
        return VolumeCurve(1, scale * tau, curve)

    start = Fraction(rng.randint(0, 4), rng.randint(1, 3))
    vals = [start]
    for s, (b0, b1) in zip(slopes, zip(breaks, breaks[1:])):
        vals.append(vals[-1] + s * (b1 - b0))
    low = min(vals[0], vals[-1])
    shift = -low if rng.random() < 0.5 else -low + Fraction(1, rng.randint(1, 4))
    vals = [v + shift for v in vals]
    if all(v == 0 for v in vals):
        vals = [v + 1 for v in vals]
    return curve_from_profile(n, breaks, vals)
