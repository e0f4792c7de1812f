"""One-dimensional model geodesics and the transform pairing them.

A test curve is a concave nonincreasing piecewise-linear function psi
on [0, lambda_max] with psi(0) = 0 (minus infinity beyond lambda_max);
a geodesic ray is a convex nondecreasing piecewise-linear function phi
on [0, infinity) with phi(0) = 0.  Both are stored as canonical point
lists (no repeated point, no point collinear with its neighbours).

The Legendre pairing phi(t) = sup (psi(lambda) + t*lambda) exchanges
slopes and breakpoints: phi has a knot at t = -s for each slope s < 0
of psi, its slopes are the breakpoints lambda_j of psi, and its final
slope is lambda_max; conversely the breakpoints of psi are 0,
lambda_max and the slopes of phi in between.  Both directions are
closed forms on the breakpoint data.  The p-th order speed of the ray
of a concave transform is the p-th root of the transform's exact p-th
moment.

The quantization checks compare level-m filtration moments against the
continuous limit and report the gap; they assert only what is a theorem
for the inputs at hand (divisorial data), and report the rest.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InvariantViolation, StructureError
from .numeric import as_fraction, check_grid, check_positive_int, float_root
from .okounkov import ConcaveTransform
from .toric import (ToricModel, ToricValuation, section_filtration,
                    volume_curve_of)


def _slopes(xs, ys):
    return [(y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))]


def _canonical(points, what: str) -> list[tuple[Fraction, Fraction]]:
    """``points`` in their given order without repeats and without any
    point collinear with its neighbours; an x below the one before it, or
    a repeated x with another y, raises StructureError naming ``what``."""
    keep: list[tuple[Fraction, Fraction]] = []
    for x, y in points:
        if keep and x < keep[-1][0]:
            raise StructureError(f"{what} {x} is below the {what} before it")
        if keep and x == keep[-1][0]:
            if y != keep[-1][1]:
                raise StructureError(f"conflicting duplicate {what}")
            continue
        if len(keep) >= 2:
            (x0, y0), (x1, y1) = keep[-2], keep[-1]
            if (y1 - y0) / (x1 - x0) == (y - y1) / (x - x1):
                keep[-1] = (x, y)
                continue
        keep.append((x, y))
    return keep


def _interpolate(xs, ys, x) -> Fraction:
    """The piecewise-linear interpolant of (xs, ys) at xs[0] <= x <= xs[-1]."""
    i = bisect_right(xs, x) - 1
    if i == len(xs) - 1:
        return ys[i]
    return ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])


class _TestCurveFields(NamedTuple):
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]


class TestCurve1D(_TestCurveFields):
    """Concave nonincreasing PL function on [0, lambda_max], zero at 0.

    Stored in canonical form: strictly increasing breakpoints starting
    at 0, values at the breakpoints, consecutive slopes strictly
    decreasing.  Use :meth:`make` to canonicalize raw data.
    """

    __slots__ = ()
    __test__ = False  # keep pytest from collecting the Test* name
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, breakpoints, values):
        b, v = breakpoints, values
        if len(b) != len(v) or not b:
            raise StructureError("breakpoints and values must align")
        if b[0] != 0 or v[0] != 0:
            raise StructureError("a test curve starts at (0, 0)")
        if any(x1 <= x0 for x0, x1 in zip(b, b[1:])):
            raise StructureError("breakpoints must strictly increase")
        s = _slopes(b, v)
        if any(x > 0 for x in s):
            raise InvariantViolation("a test curve is nonincreasing")
        if any(s1 > s0 for s0, s1 in zip(s, s[1:])):
            raise InvariantViolation("a test curve is concave")
        if any(s1 == s0 for s0, s1 in zip(s, s[1:])):
            raise StructureError(
                "collinear pieces must be merged; canonicalize with make()")
        return super().__new__(cls, breakpoints, values)

    @classmethod
    def make(cls, breakpoints, values) -> "TestCurve1D":
        b = [as_fraction(x) for x in breakpoints]
        v = [as_fraction(y) for y in values]
        if len(b) != len(v) or not b:
            raise StructureError("breakpoints and values must align")
        return cls(*zip(*_canonical(zip(b, v), "breakpoint")))

    @property
    def lambda_max(self) -> Fraction:
        return self.breakpoints[-1]

    def value(self, lam) -> Fraction:
        lam = as_fraction(lam)
        if lam < 0 or lam > self.lambda_max:
            raise DomainError("outside [0, lambda_max]")
        return _interpolate(self.breakpoints, self.values, lam)

    def to_json_dict(self) -> dict:
        return {"breakpoints": [str(x) for x in self.breakpoints],
                "values": [str(y) for y in self.values]}

    @classmethod
    def from_json_dict(cls, data) -> "TestCurve1D":
        return cls.make([Fraction(x) for x in data["breakpoints"]],
                        [Fraction(y) for y in data["values"]])


class _GeodesicRayFields(NamedTuple):
    knots: tuple[tuple[Fraction, Fraction], ...]
    final_slope: Fraction


class GeodesicRay1D(_GeodesicRayFields):
    """Convex nondecreasing PL function on [0, infinity), zero at 0.

    ``knots`` are (t, phi(t)) pairs starting at (0, 0); ``final_slope``
    is the slope past the last knot.  Canonical: knot times strictly
    increase and successive slopes (including the final one) strictly
    increase.  The growth bound 0 <= phi(t) <= final_slope * t holds
    for every such ray and is re-checked on construction.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, knots, final_slope):
        if not knots or knots[0] != (Fraction(0), Fraction(0)):
            raise StructureError("a ray starts at the knot (0, 0)")
        ts = [t for t, _ in knots]
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise StructureError("knot times must strictly increase")
        slopes = _slopes(ts, [y for _, y in knots]) + [final_slope]
        if any(s < 0 for s in slopes):
            raise InvariantViolation("a geodesic ray is nondecreasing")
        if any(s1 < s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise InvariantViolation("a geodesic ray is convex")
        if any(s1 == s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise StructureError(
                "collinear pieces must be merged; canonicalize with make()")
        for t, y in knots:
            if y > final_slope * t:
                raise InvariantViolation(
                    "ray exceeds its linear growth bound",
                    witness={"t": str(t), "phi": str(y)})
        return super().__new__(cls, knots, final_slope)

    @classmethod
    def make(cls, knots, final_slope) -> "GeodesicRay1D":
        pts = sorted((as_fraction(t), as_fraction(y)) for t, y in knots)
        final = as_fraction(final_slope)
        keep = _canonical(pts, "knot")
        # a last knot on the final slope's line is not a knot
        if len(keep) >= 2:
            (t0, y0), (t1, y1) = keep[-2], keep[-1]
            if y1 - y0 == final * (t1 - t0):
                keep.pop()
        return cls(tuple(keep), final)

    @property
    def max_slope(self) -> Fraction:
        return self.final_slope

    def value(self, t) -> Fraction:
        t = as_fraction(t)
        if t < 0:
            raise DomainError("rays are parametrized by t >= 0")
        ts, ys = zip(*self.knots)
        if t >= ts[-1]:
            return ys[-1] + self.final_slope * (t - ts[-1])
        return _interpolate(ts, ys, t)

    def to_json_dict(self) -> dict:
        return {"knots": [[str(t), str(y)] for t, y in self.knots],
                "final_slope": str(self.final_slope)}

    @classmethod
    def from_json_dict(cls, data) -> "GeodesicRay1D":
        return cls.make([(Fraction(t), Fraction(y)) for t, y in data["knots"]],
                        Fraction(data["final_slope"]))


def legendre(tc: TestCurve1D) -> GeodesicRay1D:
    """phi(t) = sup over lambda of (psi(lambda) + t*lambda), exactly.

    On the piece of psi with slope s from (lambda_j, psi_j), the
    objective is constant in lambda exactly at t = -s; so the sup moves
    from lambda_j to lambda_{j+1} there, phi has a knot at t = -s with
    value psi_j - s*lambda_j for each slope s < 0, and its final slope
    is lambda_max.
    """
    b, v = tc.breakpoints, tc.values
    knots = [(Fraction(0), Fraction(0))]
    knots += [(-s, y - s * x) for x, y, s in zip(b, v, _slopes(b, v)) if s < 0]
    return GeodesicRay1D.make(knots, tc.lambda_max)


def inverse_legendre(gr: GeodesicRay1D) -> TestCurve1D:
    """psi(lambda) = inf over t >= 0 of (phi(t) - t*lambda), exactly.

    Finite exactly on [0, final_slope]; the inf is attained at a knot,
    and psi breaks at the slopes of phi, which a canonical ray keeps in
    [0, final_slope).  This inverts :func:`legendre` on the nose.
    """
    ts, ys = zip(*gr.knots)
    breaks = sorted({Fraction(0), gr.final_slope, *_slopes(ts, ys)})
    return TestCurve1D.make(
        breaks, [min(y - t * lam for t, y in gr.knots) for lam in breaks])


def random_test_curve(rng, max_pieces: int = 4) -> TestCurve1D:
    """Random canonical test curve with small rational data."""
    k = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, 13), k))
    breaks = [Fraction(0)] + [Fraction(c, 6) for c in cuts]
    slope = Fraction(0) if rng.random() < 0.3 else -Fraction(
        rng.randint(1, 4), rng.randint(1, 3))
    values = [Fraction(0)]
    for i in range(k):
        values.append(values[-1] + slope * (breaks[i + 1] - breaks[i]))
        slope -= Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return TestCurve1D.make(breaks, values)


def dp_speed(transform: ConcaveTransform, p: int) -> float:
    """p-th order speed: the p-th root of the exact p-th moment of a
    ConcaveTransform against normalized volume.  Any other source
    raises StructureError."""
    check_positive_int(p, "order p")
    if not isinstance(transform, ConcaveTransform):
        raise StructureError("dp_speed expects a ConcaveTransform")
    return float_root(transform.moment_p(p), p)


def _first_decrease(powers):
    """The first adjacent (p1, p2) of ``powers``, (p, y_p**p) pairs with
    p increasing and y_p >= 0, where y_p1 > y_p2, or None; decided as
    x1**p2 > x2**p1, without roots."""
    for (p1, x1), (p2, x2) in zip(powers, powers[1:]):
        if x1 ** p2 > x2 ** p1:
            return p1, p2
    return None


class MomentIdentityReport(NamedTuple):
    """Quantized versus continuous p-th moments along a level grid.

    ``rows`` hold (m, quantized root, continuous root, gap) where the
    gap is signed, quantized minus continuous; finite-level moments may
    sit on either side of the limit (on a segment the level-m second
    moment is 1/3 + 1/(6m), above the limit), so no one-sided sandwich
    is asserted, only the caller's absolute bound at the last level.
    """

    p: int
    continuous_power: Fraction
    rows: tuple[tuple[int, float, float, float], ...]
    final_gap: float


def verify_moment_identity(model: ToricModel, val: ToricValuation, p: int,
                           m_grid=(1, 2, 4, 8)) -> MomentIdentityReport:
    """Compare level-m filtration moments with the volume-curve moment.

    Emits one row per level with the signed gap.  Normalized-speed
    monotonicity over orders 1..max(8, p) is exact and asserted here
    because the input is divisorial.
    """
    check_positive_int(p, "order p")
    grid = check_grid(m_grid, "level grid")
    curve = volume_curve_of(model, val)
    s_cont = curve.s_p(p)
    c_root = float_root(s_cont, p)
    rows = []
    for m in grid:
        filt = section_filtration(model, val, m)
        s_m = filt.s_m_p(p)
        q_root = float_root(s_m, p)
        rows.append((m, q_root, c_root, q_root - c_root))
    drop = _first_decrease([(q, curve.h_stat_power(q))
                            for q in range(1, max(8, p) + 1)])
    if drop is not None:
        raise InvariantViolation(
            "normalized speed fails to be nondecreasing on a divisorial input",
            witness={"p_low": drop[0], "p_high": drop[1]})
    return MomentIdentityReport(p=p, continuous_power=s_cont,
                                rows=tuple(rows), final_gap=rows[-1][3])
