"""Independent-route checks of the benchmark's seeded outputs.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/checks.py routes MODEL_JSON < invariants_json_output
    python3 perfbench/checks.py oracle < libcalls_oracle_output
    python3 perfbench/checks.py curves < libcalls_curves_output

Prints nothing and exits 0 when the output is right; prints the reason
and exits 1 when it is not.  ``run.py`` runs the checks in their own
process so that importing the library for them does not raise the peak
RSS it measures for the commands.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import deltap


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_routes(model_path: str, out: dict) -> str | None:
    """Each row's s_p must equal the concave-transform moment at its
    argmin, a route that builds no survival curve, and a**p / s_p must
    match delta_upper**p."""
    with open(model_path) as fh:
        model = deltap.ToricModel(
            deltap.RationalPolytope.from_json_dict(json.load(fh)))
    if not out["rows"]:
        return "no rows"
    for row in out["rows"]:
        p, s_p, a = row["p"], Fraction(row["s_p"]), Fraction(row["a"])
        val = deltap.ToricValuation(model, row["argmin"])
        route = deltap.concave_transform_of(model, val).moment_p(p)
        if route != s_p:
            return f"p={p}: s_p {s_p} != transform moment {route}"
        if not _close(float(a) ** p / float(s_p),
                      row["delta_upper_bound"] ** p, 1e-9):
            return f"p={p}: a**p/s_p differs from delta_upper**p"
    return None


def _moment(jumps: list[Fraction], m: int, p: int) -> Fraction:
    return sum((a / m) ** p for a in jumps) / len(jumps)


def check_oracle(out: list) -> str | None:
    """Moments recomputed here from the printed jumps: the oracle stays
    below s_m_2, the compatible basis attains s_m_p, and the rounding
    sandwich holds with the floored jumps in the middle."""
    for i, row in enumerate(out):
        m, jumps = row["m"], [Fraction(a) for a in row["jumps"]]
        floored = [Fraction(math.floor(a)) for a in jumps]
        if Fraction(row["oracle_p2"]) > _moment(jumps, m, 2):
            return f"filtration {i}: oracle above s_m_2"
        for p in (1, 2):
            if Fraction(row["basis_moment"][str(p)]) != _moment(jumps, m, p):
                return f"filtration {i}: compatible basis misses s_m_{p}"
        for p in (1, 3):
            upper, mid, lower = map(Fraction, row["sandwich"][str(p)])
            if (upper, mid) != (_moment(jumps, m, p), _moment(floored, m, p)) \
                    or not lower <= mid <= upper:
                return f"filtration {i}: rounding sandwich fails at p={p}"
        upper, mid, lower = row["sandwich"]["3/2"]
        slack = 1e-12 * max(abs(upper), 1.0)
        if not lower - slack <= mid <= upper + slack:
            return f"filtration {i}: rounding sandwich fails at p=3/2"
    return None


def real_moment_bound(curve, p: float) -> float:
    """The error ``s_p_real(p)`` allows itself at its default tolerance.

    It integrates x**(p-1) curve(x) to +-1e-10 * max(1, V tau**p / p)
    and multiplies by p / V.  When V tau**p / p < 1 that is an absolute
    bound, so the relative error can be far above 1e-10.
    """
    size = float(curve.V) * float(curve.tau) ** p / p
    return p * 1e-10 * max(1.0, size) / float(curve.V)


def check_curves(out: list) -> str | None:
    """Exact moments against the density route and the barycenter
    bracket; the half-integer moment against the real-order one, within
    the real-order moment's own bound; k_stat at n+2 against (n+2) s_2
    (tau**3 when n = 1)."""
    for i, row in enumerate(out):
        curve = deltap.VolumeCurve.from_json_dict(row["curve"])
        for p, text in enumerate(row["s_p"], start=1):
            s = Fraction(text)
            if s != curve.s_p_from_density(p):
                return f"curve {i}: s_{p} differs from the density route"
            lower, upper = curve.barycenter_bounds(p)
            if not lower <= s <= upper:
                return f"curve {i}: s_{p} outside the barycenter bracket"
        exact, real = row["s_p_half_5_2"], row["s_p_real_2_5"]
        if abs(exact - real) > real_moment_bound(curve, 2.5) + 1e-12 * exact:
            return f"curve {i}: s_(5/2) exact and quadrature disagree"
        target = float(curve.tau) ** 3 if curve.n == 1 \
            else (curve.n + 2) * float(Fraction(row["s_p"][1]))
        if not _close(row["k_stat_n_plus_2"], target, 1e-9):
            return f"curve {i}: k_stat(n+2) off its closed form"
    return None


def main(argv: list[str]) -> int:
    kind, args = argv[0], argv[1:]
    try:
        out = json.load(sys.stdin)
        if kind == "routes":
            reason = check_routes(args[0], out)
        elif kind == "oracle":
            reason = check_oracle(out)
        elif kind == "curves":
            reason = check_curves(out)
        else:
            reason = f"unknown check {kind!r}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is None:
        return 0
    print(reason)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
