"""The property suite that ``deltap verify`` runs.

Each check takes a seeded ``random.Random`` and raises a ``DeltapError``
with a witness when its property fails.  The suite crosses every layer:
volume curves, filtrations, the Legendre pairing, the moment identity,
concave transforms and the threshold table.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InvariantViolation
from .filtration import (basis_moment, compatible_basis,
                         random_flag_filtration, rounding_sandwich)
from .geodesic import (inverse_legendre, legendre, random_test_curve,
                       verify_moment_identity)
from .invariants import delta_family
from .numeric import SqrtSum, root_drops
from .piecewise import PiecewisePolynomial, Polynomial
from .toric import (ToricValuation, builtin_model, concave_transform_of,
                    section_filtration, volume_curve_of)
from .volume_curve import VolumeCurve, random_admissible_curve


def _curve_corpus(seed: int, per_dim: int = 12):
    out = []
    for n in (1, 2, 3):
        rng = random.Random(f"corpus:{seed}:{n}")
        for _ in range(per_dim):
            out.append(random_admissible_curve(rng, n))
    return out


def _check_barycenter(rng):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6)):
        for p in (1, 2, 3, 4):
            lo, hi = curve.barycenter_bounds(p)
            s = curve.s_p(p)
            if not (lo <= s <= hi):
                raise InvariantViolation(
                    "barycenter sandwich fails",
                    witness={"n": curve.n, "p": p, "s_p": str(s),
                             "curve": curve.to_json_dict()})


def _check_dual_route(rng):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6), per_dim=8):
        for p in (1, 2, 3):
            a = curve.s_p(p)
            b = curve.s_p_from_density(p)
            if a != b:
                raise InvariantViolation(
                    "moment route mismatch",
                    witness={"p": p, "direct": str(a), "density": str(b)})


def _check_h_monotone(rng):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6)):
        drop = next(root_drops((p, curve.h_stat_power(p))
                               for p in range(1, 7)), None)
        if drop is not None:
            raise InvariantViolation(
                "normalized moment fails to be nondecreasing",
                witness={"n": curve.n, "p": drop[1],
                         "curve": curve.to_json_dict()})


# k_stat is a float, so a log-convex K's second log differences may
# read this far below 0 from rounding alone.
LOG_CONVEXITY_SLACK = 1e-9


def _check_k_log_convex(rng):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6), per_dim=6):
        n = curve.n
        grid = [n + Fraction(j, 2) for j in range(0, 13)]
        logs = [math.log(curve.k_stat(float(s))) for s in grid]
        for i in range(1, len(logs) - 1):
            second = logs[i - 1] + logs[i + 1] - 2 * logs[i]
            if second < -LOG_CONVEXITY_SLACK:
                raise InvariantViolation(
                    "log-convexity violated",
                    witness={"n": n, "s": float(grid[i]), "second": second})


def _is_nonnegative(x) -> bool:
    if isinstance(x, SqrtSum):
        return x.sign() >= 0
    return x >= 0


def _check_rounding_sandwich(rng):
    for _ in range(10):
        filt = random_flag_filtration(rng, rng.randint(1, 4),
                                      rng.randint(1, 4))
        for p in (1, Fraction(3, 2), 3):
            upper, mid, lower = rounding_sandwich(filt, p)
            ok_hi = _is_nonnegative(upper - mid)
            ok_lo = _is_nonnegative(mid - lower)
            if not (ok_hi and ok_lo):
                raise InvariantViolation(
                    "rounding sandwich fails",
                    witness={"p": str(p), "jumps": [str(a) for a in filt.jumps],
                             "m": filt.m})


def _check_legendre(rng):
    for _ in range(10):
        tc = random_test_curve(rng)
        ray = legendre(tc)
        back = inverse_legendre(ray)
        if back != tc:
            raise InvariantViolation(
                "transform round trip differs",
                witness={"curve": tc.to_json_dict(),
                         "back": back.to_json_dict()})
        for t in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            val = ray.value(t)
            if val < 0 or val > ray.max_slope * t:
                raise InvariantViolation(
                    "growth bound violated",
                    witness={"t": str(t), "phi": str(val)})


def _check_moment_identity(rng):
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    curve = volume_curve_of(model, val)
    for m in (1, 2, 4):
        if section_filtration(model, val, m).s_m_p(1) != curve.s_p(1):
            raise InvariantViolation(
                "first-moment lattice coincidence fails",
                witness={"m": m})
    report = verify_moment_identity(model, val, 2, m_grid=(4, 16))
    gaps = [q - report.continuous_root for _, q in report.rows]
    if abs(gaps[1]) > abs(gaps[0]):
        raise InvariantViolation("moment gap fails to shrink",
                                 witness={"gaps": gaps})


def _check_transform_route(rng):
    for name, v in (("p2", (1, 0)), ("p1xp1", (0, 1)), ("hirzebruch-1", (1, 0))):
        model = builtin_model(name)
        val = ToricValuation(model, v)
        curve = volume_curve_of(model, val)
        transform = concave_transform_of(model, val)
        for p in (1, 2):
            if transform.moment_p(p) != curve.s_p(p):
                raise InvariantViolation(
                    "transform moment differs from curve moment",
                    witness={"model": name, "p": p})
            if transform.moment_from_slices(p) != curve.s_p(p):
                raise InvariantViolation(
                    "slice route differs from curve moment",
                    witness={"model": name, "p": p})


def _check_compatible_basis(rng):
    for _ in range(5):
        filt = random_flag_filtration(rng, rng.randint(1, 4),
                                      rng.randint(1, 3))
        chain = [rows for _, rows in filt.flag[1:]]
        basis = compatible_basis(chain, filt.d)
        for p in (1, 2):
            target = filt.s_m_p(p)
            if basis_moment(filt, basis, p) != target:
                raise InvariantViolation(
                    "compatible basis misses the supremum",
                    witness={"p": p, "jumps": [str(a) for a in filt.jumps]})


def _check_delta_report(rng):
    report = delta_family(builtin_model("p2-anticanonical"), (1, 2, 3), 2)
    if report.flags:
        raise InvariantViolation("unexpected flags",
                                 witness={"flags": list(report.flags)})
    if len(report.verdicts) != len(report.rows):
        raise InvariantViolation("missing verdicts on an anticanonical model")


def _check_mutant(rng):
    """Build a curve that increases on [1/2, 3/4].  Fails either way:
    with the validator's own error when it rejects the curve, and with
    "mutant escaped detection" when it does not."""
    breaks = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    pieces = (Polynomial((Fraction(1), Fraction(-1))),
              Polynomial((Fraction(0), Fraction(1))),
              Polynomial((Fraction(3), Fraction(-3))))
    VolumeCurve(1, Fraction(1), PiecewisePolynomial(breaks, pieces))
    raise InvariantViolation("mutant escaped detection")


VERIFY_CHECKS = (
    ("barycenter-sandwich", _check_barycenter),
    ("dual-route-moments", _check_dual_route),
    ("h-monotone", _check_h_monotone),
    ("k-log-convex", _check_k_log_convex),
    ("rounding-sandwich", _check_rounding_sandwich),
    ("legendre-involution", _check_legendre),
    ("moment-identity", _check_moment_identity),
    ("transform-route", _check_transform_route),
    ("compatible-basis", _check_compatible_basis),
    ("delta-report", _check_delta_report),
)
MUTANT_CHECK = ("mutant-curve-rejected", _check_mutant)
