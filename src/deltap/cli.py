"""Command-line surface: invariant tables, verification suite, scans.

Three subcommands share one option vocabulary:

* ``invariants``: threshold table over an order grid (delta upper
  bounds, alpha, verdicts where the model is anticanonically
  proportional).  CSV columns: p, delta_upper, argmin, alpha_upper,
  threshold, verdict.
* ``verify``: named property suite over seeded random inputs plus the
  built-in models; one line per property, witness on failure.  CSV
  columns: status, property, detail.
* ``scan``: plot-ready grids, proven and conjectural columns labeled,
  nothing asserted.  CSV columns: scan, x, name, value, status.

Exit codes: 0 success, 2 invariant violation, 3 input error,
4 unsupported model.  Rationals serialize as "a/b" strings in JSON;
CSV floats carry 12 significant digits.  The same configuration and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import (AccuracyError, DeltapError, DomainError,
                     InvariantViolation, StructureError,
                     UnsupportedModelError)
from .filtration import basis_moment, compatible_basis, random_flag_filtration
from .geodesic import (inverse_legendre, legendre, random_test_curve,
                       verify_moment_identity)
from .geometry import Halfspace, RationalPolytope
from .invariants import delta_family
from .numeric import SqrtSum
from .piecewise import PiecewisePolynomial, Polynomial
from .toric import (CandidateTable, ToricModel, ToricValuation, builtin_model,
                    concave_transform_of, delta_p_search, volume_curve_of)
from .volume_curve import VolumeCurve, random_admissible_curve

# Most cuts the truncation probe of ``scan`` may make: each cut runs a
# full candidate search, so a wider model is refused before the first.
MAX_PROBE_CUTS = 400


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str
    anticanonical: bool
    p_grid: tuple[int, ...]
    bound: int
    m_grid: tuple[int, ...]
    tol: float
    fmt: str
    seed: int
    out: str | None
    inject_mutant: bool = False


def _parse_grid(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        grid = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad grid {text!r}: integers, comma-separated") from exc
    if any(x < 1 for x in grid):
        raise DomainError("grid entries must be >= 1")
    return grid


def load_model(name: str) -> ToricModel:
    """A built-in model name, or a path to a polytope JSON file."""
    try:
        return builtin_model(name)
    except UnsupportedModelError:
        pass
    path = Path(name)
    if not path.exists():
        raise DomainError(f"no built-in model or file named {name!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise StructureError(f"model file {name!r} is not UTF-8 text: "
                             f"{exc.reason} at byte {exc.start}") from None
    return ToricModel(RationalPolytope.from_json_dict(data))


def _resolve_model(cfg: RunConfig) -> ToricModel:
    model = load_model(cfg.model)
    if cfg.anticanonical:
        model = ToricModel(model.anticanonical_polytope())
    return model


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_invariants(cfg: RunConfig) -> int:
    model = _resolve_model(cfg)
    p_grid = cfg.p_grid or (1, 2, 3, 4)
    report = delta_family(model, p_grid, cfg.bound)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        header = ["p", "delta_upper", "argmin", "alpha_upper",
                  "threshold", "verdict"]
        _emit(cfg, _csv_text(header, report.to_csv_rows()))
    return 0


# ---------------------------------------------------------------------------
# verification suite


def _curve_corpus(seed: int, per_dim: int = 12):
    out = []
    for n in (1, 2, 3):
        rng = random.Random(f"corpus:{seed}:{n}")
        for _ in range(per_dim):
            out.append(random_admissible_curve(rng, n))
    return out


def _check_barycenter(rng, tol):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6)):
        for p in (1, 2, 3, 4):
            lo, hi = curve.barycenter_bounds(p)
            s = curve.s_p(p)
            if not (lo <= s <= hi):
                raise InvariantViolation(
                    "barycenter sandwich fails",
                    witness={"n": curve.n, "p": p, "s_p": str(s),
                             "curve": curve.to_json_dict()})


def _check_dual_route(rng, tol):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6), per_dim=8):
        for p in (1, 2, 3):
            a = curve.s_p(p)
            b = curve.s_p_from_density(p)
            if a != b:
                raise InvariantViolation(
                    "moment route mismatch",
                    witness={"p": p, "direct": str(a), "density": str(b)})


def _check_h_monotone(rng, tol):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6)):
        prev = None
        for p in range(1, 7):
            cur = curve.h_stat_power(p)
            if prev is not None and prev ** p > cur ** (p - 1):
                raise InvariantViolation(
                    "normalized moment fails to be nondecreasing",
                    witness={"n": curve.n, "p": p,
                             "curve": curve.to_json_dict()})
            prev = cur


def _check_k_log_convex(rng, tol):
    for curve in _curve_corpus(rng.randint(0, 10 ** 6), per_dim=6):
        n = curve.n
        grid = [n + Fraction(j, 2) for j in range(0, 13)]
        logs = [math.log(curve.k_stat(float(s))) for s in grid]
        for i in range(1, len(logs) - 1):
            second = logs[i - 1] + logs[i + 1] - 2 * logs[i]
            if second < -tol:
                raise InvariantViolation(
                    "log-convexity violated",
                    witness={"n": n, "s": float(grid[i]), "second": second})


def _cmp_nonneg(x) -> bool:
    if isinstance(x, SqrtSum):
        return x.sign() >= 0
    return x >= 0


def _check_rounding_sandwich(rng, tol):
    from .filtration import rounding_sandwich
    for _ in range(10):
        filt = random_flag_filtration(rng, rng.randint(1, 4),
                                      rng.randint(1, 4))
        for p in (1, Fraction(3, 2), 3):
            upper, mid, lower = rounding_sandwich(filt, p)
            ok_hi = _cmp_nonneg(upper - mid)
            ok_lo = _cmp_nonneg(mid - lower)
            if not (ok_hi and ok_lo):
                raise InvariantViolation(
                    "rounding sandwich fails",
                    witness={"p": str(p), "jumps": [str(a) for a in filt.jumps],
                             "m": filt.m})


def _check_legendre(rng, tol):
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


def _check_moment_identity(rng, tol):
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    curve = volume_curve_of(model, val)
    from .toric import section_filtration
    for m in (1, 2, 4):
        if section_filtration(model, val, m).s_m_p(1) != curve.s_p(1):
            raise InvariantViolation(
                "first-moment lattice coincidence fails",
                witness={"m": m})
    report = verify_moment_identity(model, val, 2, m_grid=(4, 16))
    if abs(report.rows[1][3]) > abs(report.rows[0][3]):
        raise InvariantViolation(
            "moment gap fails to shrink",
            witness={"gaps": [r[3] for r in report.rows]})


def _check_transform_route(rng, tol):
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


def _check_compatible_basis(rng, tol):
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


def _check_delta_report(rng, tol):
    report = delta_family(builtin_model("p2-anticanonical"), (1, 2, 3), 2)
    if report.flags:
        raise InvariantViolation("unexpected flags",
                                 witness={"flags": list(report.flags)})
    if any(r.verdict is None for r in report.rows):
        raise InvariantViolation("missing verdicts on an anticanonical model")


def _mutant_curve():
    breaks = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    pieces = (Polynomial((Fraction(1), Fraction(-1))),
              Polynomial((Fraction(0), Fraction(1))),
              Polynomial((Fraction(3), Fraction(-3))))
    curve = PiecewisePolynomial(breaks, pieces)
    return VolumeCurve(1, Fraction(1), curve)


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


def cmd_verify(cfg: RunConfig) -> int:
    results = []
    failures = 0
    for name, fn in VERIFY_CHECKS:
        rng = random.Random(f"{cfg.seed}:{name}")
        try:
            fn(rng, cfg.tol)
            results.append({"status": "PASS", "property": name, "detail": ""})
        except DeltapError as exc:
            failures += 1
            witness = getattr(exc, "witness", None)
            detail = str(exc)
            if witness is not None:
                detail += " | witness=" + json.dumps(
                    witness, sort_keys=True, default=str)
            results.append({"status": "FAIL", "property": name,
                            "detail": detail})
    if cfg.inject_mutant:
        name = "mutant-curve-rejected"
        try:
            _mutant_curve()
            failures += 1
            results.append({"status": "FAIL", "property": name,
                            "detail": "mutant escaped detection"})
        except InvariantViolation as exc:
            failures += 1
            witness = getattr(exc, "witness", None)
            results.append({
                "status": "FAIL", "property": name,
                "detail": f"{exc} | witness=" + json.dumps(
                    witness, sort_keys=True, default=str)})
    if cfg.fmt == "json":
        doc = {"seed": cfg.seed, "failures": failures, "results": results}
        _emit(cfg, json.dumps(doc, indent=2) + "\n")
    else:
        _emit(cfg, _csv_text(["status", "property", "detail"], results))
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# scans


def _scan_rows(cfg: RunConfig, model: ToricModel):
    p_grid = cfg.p_grid
    if not p_grid:
        raise DomainError("scan needs an order grid: pass --p")
    # The probe's rows come last, but it runs first, so that its budget
    # refuses a wide model before any search or section walk.
    p0 = p_grid[0]
    probe = _truncation_probe(cfg, model, p0)
    table = CandidateTable(model, cfg.bound)
    base = table.delta(1)
    val = ToricValuation(model, base.argmin)
    curve = table.curve(base.argmin)
    rows = []
    for p in p_grid:
        rows.append({"scan": "order", "x": p, "name": "h_stat",
                     "value": f"{curve.h_stat(p):.12g}",
                     "status": "proven-monotone"})
    for p in p_grid:
        rows.append({"scan": "order", "x": p, "name": "r_stat",
                     "value": f"{curve.r_stat(p):.12g}",
                     "status": "conjectural"})
    for p in p_grid:
        search = table.delta(p)
        rows.append({"scan": "order", "x": p, "name": "delta_upper",
                     "value": f"{search.value:.12g}",
                     "status": "upper-bound"})
    levels = cfg.m_grid or (1, 2, 4, 8)
    # --m may be unsorted or repeated; the identity takes a strictly
    # increasing grid, so one call covers the distinct levels.
    report = verify_moment_identity(model, val, p0,
                                    m_grid=sorted(set(levels)))
    gaps = {m: gap for m, _, _, gap in report.rows}
    for m in levels:
        rows.append({"scan": "level", "x": m, "name": "moment_gap",
                     "value": f"{gaps[m]:.12g}", "status": "raw"})
    rows.extend(probe)
    return rows


def _truncation_probe(cfg: RunConfig, model: ToricModel, p: int):
    """Continuity probe: cut a dilated model at integer heights along
    the first axis and track the threshold bound.  The cuts, one
    candidate search each, may number at most ``MAX_PROBE_CUTS``."""
    rows = []
    big = ToricModel(model.P.dilate(4))
    xs = [w[0] for w in big.P.vertices]
    lo, hi = min(xs), max(xs)
    if hi - lo > MAX_PROBE_CUTS:
        raise DomainError(f"the truncation probe needs {hi - lo} cuts, over "
                          f"the budget of {MAX_PROBE_CUTS}")
    normal = tuple([-1] + [0] * (model.n - 1))
    for c in range(int(lo) + 1, int(hi) + 1):
        cut = big.P.intersect([Halfspace(normal, Fraction(-c))])
        try:
            search = delta_p_search(ToricModel(cut), p, cfg.bound)
            value = f"{search.value:.12g}"
        except DeltapError:
            value = ""
        rows.append({"scan": "truncation", "x": f"{Fraction(c - lo, hi - lo)}",
                     "name": "delta_upper", "value": value, "status": "probe"})
    return rows


def cmd_scan(cfg: RunConfig) -> int:
    model = _resolve_model(cfg)
    rows = _scan_rows(cfg, model)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({"rows": rows}, indent=2) + "\n")
    else:
        _emit(cfg, _csv_text(["scan", "x", "name", "value", "status"], rows))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltap",
        description="Moment-type valuative invariants on toric models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("invariants", "threshold table over an order grid"),
            ("verify", "run the named property suite"),
            ("scan", "emit plot-ready grids, nothing asserted")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--model", default="p2",
                       help="built-in name or polytope JSON path")
        p.add_argument("--anticanonical", action="store_true",
                       help="replace the model by its anticanonical polytope")
        p.add_argument("--p", default="", help="comma-separated order grid")
        p.add_argument("--bound", type=int, default=3,
                       help="candidate box radius for searches")
        p.add_argument("--m", default="", help="comma-separated level grid")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="tolerance for float-path checks")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       dest="fmt")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if name == "verify":
            p.add_argument("--inject-mutant", action="store_true",
                           help="include a deliberately broken curve")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    bound = args.bound
    if bound < 1:
        raise DomainError("--bound must be >= 1")
    if not math.isfinite(args.tol) or args.tol <= 0:
        raise DomainError("--tol must be a finite positive number")
    return RunConfig(command=args.command, model=args.model,
                     anticanonical=args.anticanonical,
                     p_grid=_parse_grid(args.p), bound=bound,
                     m_grid=_parse_grid(args.m), tol=args.tol,
                     fmt=args.fmt, seed=args.seed, out=args.out,
                     inject_mutant=getattr(args, "inject_mutant", False))


def _report_error(exc: Exception, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc),
           "witness": getattr(exc, "witness", None)}
    sys.stderr.write(json.dumps(doc, default=str) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is an input error.
        return 0 if exc.code == 0 else 3
    try:
        cfg = _config_from(args)
        if cfg.command == "invariants":
            return cmd_invariants(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_scan(cfg)
    except UnsupportedModelError as exc:
        return _report_error(exc, 4)
    except (InvariantViolation, AccuracyError) as exc:
        return _report_error(exc, 2)
    except DeltapError as exc:
        return _report_error(exc, 3)
    except (OSError, json.JSONDecodeError) as exc:
        return _report_error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
