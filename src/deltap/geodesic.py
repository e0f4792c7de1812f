"""One-dimensional model geodesics and the transform pairing them.

A test curve is a concave nonincreasing piecewise-linear function psi
on [0, lambda_max] with psi(0) = 0 (minus infinity beyond lambda_max);
a geodesic ray is a convex nondecreasing piecewise-linear function phi
on [0, infinity) with phi(0) = 0.  The two are exchanged by an exact
Legendre-type transform on breakpoint data, and rays carry p-th order
speeds given by moments of a spectral measure.

The quantization checks compare level-m filtration moments against the
continuous limit and report the gap; they assert only what is a theorem
for the inputs at hand (divisorial data), and report the rest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InvariantViolation, StructureError
from .numeric import as_fraction, check_positive_int
from .okounkov import ConcaveTransform, SpectralMeasure
from .toric import (ToricModel, ToricValuation, section_filtration,
                    volume_curve_of)


def _slopes(xs, ys):
    return [(y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))]


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
        keep_b, keep_v = [b[0]], [v[0]]
        for x, y in zip(b[1:], v[1:]):
            if keep_b and x == keep_b[-1]:
                if y != keep_v[-1]:
                    raise StructureError("conflicting duplicate breakpoint")
                continue
            if len(keep_b) >= 2:
                s_prev = (keep_v[-1] - keep_v[-2]) / (keep_b[-1] - keep_b[-2])
                s_new = (y - keep_v[-1]) / (x - keep_b[-1])
                if s_new == s_prev:
                    keep_b[-1], keep_v[-1] = x, y
                    continue
            keep_b.append(x)
            keep_v.append(y)
        return cls(tuple(keep_b), tuple(keep_v))

    @property
    def lambda_max(self) -> Fraction:
        return self.breakpoints[-1]

    def value(self, lam) -> Fraction:
        lam = as_fraction(lam)
        if lam < 0 or lam > self.lambda_max:
            raise DomainError("outside [0, lambda_max]")
        b, v = self.breakpoints, self.values
        for i in range(len(b) - 1, -1, -1):
            if lam >= b[i]:
                if i == len(b) - 1:
                    return v[i]
                t = (lam - b[i]) / (b[i + 1] - b[i])
                return v[i] + t * (v[i + 1] - v[i])
        raise DomainError("outside [0, lambda_max]")

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
        keep: list[tuple[Fraction, Fraction]] = []
        for t, y in pts:
            if keep and t == keep[-1][0]:
                if y != keep[-1][1]:
                    raise StructureError("conflicting duplicate knot")
                continue
            keep.append((t, y))
        # merge collinear interior knots, then a trailing knot whose
        # incoming slope equals the final slope.
        i = 1
        while i + 1 < len(keep):
            (t0, y0), (t1, y1), (t2, y2) = keep[i - 1], keep[i], keep[i + 1]
            if (y1 - y0) * (t2 - t1) == (y2 - y1) * (t1 - t0):
                del keep[i]
            else:
                i += 1
        while len(keep) >= 2:
            (t0, y0), (t1, y1) = keep[-2], keep[-1]
            if y1 - y0 == final * (t1 - t0):
                del keep[-1]
            else:
                break
        return cls(tuple(keep), final)

    @property
    def max_slope(self) -> Fraction:
        return self.final_slope

    def value(self, t) -> Fraction:
        t = as_fraction(t)
        if t < 0:
            raise DomainError("rays are parametrized by t >= 0")
        k = self.knots
        for i in range(len(k) - 1, -1, -1):
            if t >= k[i][0]:
                if i == len(k) - 1:
                    return k[i][1] + self.final_slope * (t - k[i][0])
                t0, y0 = k[i]
                t1, y1 = k[i + 1]
                return y0 + (t - t0) * (y1 - y0) / (t1 - t0)
        raise DomainError("rays are parametrized by t >= 0")

    def to_json_dict(self) -> dict:
        return {"knots": [[str(t), str(y)] for t, y in self.knots],
                "final_slope": str(self.final_slope)}

    @classmethod
    def from_json_dict(cls, data) -> "GeodesicRay1D":
        return cls.make([(Fraction(t), Fraction(y)) for t, y in data["knots"]],
                        Fraction(data["final_slope"]))


def legendre(tc: TestCurve1D) -> GeodesicRay1D:
    """phi(t) = sup over lambda of (psi(lambda) + t*lambda), exactly.

    For fixed t the objective is concave PL in lambda, so the sup is
    attained at a breakpoint; phi is the upper envelope of the finite
    line family t -> psi_j + t*lambda_j and is computed as such.
    """
    lines = list(zip(tc.breakpoints, tc.values))  # (slope, intercept)
    stack: list[tuple[Fraction, Fraction]] = []
    for slope, icpt in lines:
        while stack:
            s0, c0 = stack[-1]
            tstar = (c0 - icpt) / (slope - s0)
            if len(stack) >= 2:
                s1, c1 = stack[-2]
                tprev = (c1 - c0) / (s0 - s1)
                if tstar <= tprev:
                    stack.pop()
                    continue
            elif tstar <= 0:
                stack.pop()
                continue
            break
        stack.append((slope, icpt))
    if stack[0][1] != 0:
        raise InvariantViolation("transform does not vanish at t = 0")
    knots = [(Fraction(0), Fraction(0))]
    for (s0, c0), (s1, c1) in zip(stack, stack[1:]):
        t = (c0 - c1) / (s1 - s0)
        knots.append((t, c0 + s0 * t))
    return GeodesicRay1D.make(knots, stack[-1][0])


def inverse_legendre(gr: GeodesicRay1D) -> TestCurve1D:
    """psi(lambda) = inf over t >= 0 of (phi(t) - t*lambda), exactly.

    Finite exactly on [0, final_slope]; the inf is attained at a knot,
    so psi is a lower envelope of finitely many lines in lambda.  On
    canonical data this inverts :func:`legendre` on the nose.
    """
    lam_max = gr.final_slope
    ts = [t for t, _ in gr.knots]
    cuts = {Fraction(0), lam_max}
    for s in _slopes(ts, [y for _, y in gr.knots]):
        if 0 <= s <= lam_max:
            cuts.add(s)
    breaks = sorted(cuts)
    vals = [min(y - t * lam for t, y in gr.knots) for lam in breaks]
    return TestCurve1D.make(breaks, vals)


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


def dp_speed(source, p: int) -> float:
    """p-th order speed: the p-th root of the p-th moment of the
    spectral data (a measure, or a transform integrated against
    normalized volume)."""
    check_positive_int(p, "order p")
    if isinstance(source, (SpectralMeasure, ConcaveTransform)):
        moment = source.moment_p(p)
    else:
        raise StructureError(
            "dp_speed expects a SpectralMeasure or ConcaveTransform")
    return float(moment) ** (1.0 / p)


def normalized_speed_table(measure: SpectralMeasure, n: int, p_grid):
    """Rows (p, ((n+p)/n)**(1/p) * dp_speed) plus a monotonicity flag.

    Reported, never asserted: the normalized speed is nondecreasing in
    p for spectral measures of divisorial origin, but fails for others
    (a single atom at C > 0 gives a strictly decreasing sequence), so a
    False flag is information, not an error.
    """
    grid = tuple(int(p) for p in p_grid)
    if any(p < 1 for p in grid) or list(grid) != sorted(set(grid)):
        raise DomainError("the order grid must be strictly increasing, >= 1")
    rows = []
    for p in grid:
        factor = Fraction(n + p, n) * measure.moment_p(p)
        rows.append((p, float(factor) ** (1.0 / p)))
    monotone = True
    for (p1, _), (p2, _) in zip(rows, rows[1:]):
        lhs = (Fraction(n + p1, n) * measure.moment_p(p1)) ** p2
        rhs = (Fraction(n + p2, n) * measure.moment_p(p2)) ** p1
        if lhs > rhs:
            monotone = False
            break
    return rows, monotone


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

    def to_json_dict(self) -> dict:
        return {"p": self.p, "continuous_power": str(self.continuous_power),
                "rows": [{"m": m, "quantized": q, "continuous": c, "gap": g}
                         for m, q, c, g in self.rows],
                "final_gap": self.final_gap}

    def to_csv_rows(self) -> list[dict]:
        return [{"m": m, "quantized": f"{q:.12g}", "continuous": f"{c:.12g}",
                 "gap": f"{g:.12g}"} for m, q, c, g in self.rows]


def verify_moment_identity(model: ToricModel, val: ToricValuation, p: int,
                           m_grid=(1, 2, 4, 8),
                           gap_bound: float | None = None) -> MomentIdentityReport:
    """Compare level-m filtration moments with the volume-curve moment.

    Emits one row per level with the signed gap.  If ``gap_bound`` is
    given, the absolute gap at the largest level must not exceed it.
    Normalized-speed monotonicity over orders 1..max(8, p) is exact and
    asserted here because the input is divisorial.
    """
    check_positive_int(p, "order p")
    grid = tuple(int(m) for m in m_grid)
    if not grid or any(m < 1 for m in grid) or list(grid) != sorted(set(grid)):
        raise DomainError("the level grid must be strictly increasing, >= 1")
    curve = volume_curve_of(model, val)
    s_cont = curve.s_p(p)
    c_root = float(s_cont) ** (1.0 / p)
    rows = []
    for m in grid:
        filt = section_filtration(model, val, m)
        s_m = filt.s_m_p(p)
        q_root = float(s_m) ** (1.0 / p)
        rows.append((m, q_root, c_root, q_root - c_root))
    final_gap = rows[-1][3]
    if gap_bound is not None and abs(final_gap) > gap_bound:
        raise InvariantViolation(
            f"gap {final_gap} at level {grid[-1]} exceeds bound {gap_bound}",
            witness={"m": grid[-1], "gap": final_gap, "bound": gap_bound})

    n = model.n
    p_top = max(8, p)
    prev = None
    for q in range(1, p_top + 1):
        cur = curve.h_stat_power(q)
        if prev is not None:
            q0 = q - 1
            if prev[1] ** q > cur ** q0:
                raise InvariantViolation(
                    "normalized speed fails to be nondecreasing on a "
                    "divisorial input",
                    witness={"p_low": q0, "p_high": q})
        prev = (q, cur)
    return MomentIdentityReport(p=p, continuous_power=s_cont,
                                rows=tuple(rows), final_gap=final_gap)
