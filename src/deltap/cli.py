"""Command-line surface: invariant tables, verification suite, scans.

Three subcommands, each taking only the options it reads:

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
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import (AccuracyError, DeltapError, DomainError,
                     InvariantViolation, StructureError,
                     UnsupportedModelError)
from .geometry import Halfspace, RationalPolytope
from .invariants import InvariantReport, delta_family
from .toric import (MAX_MOMENT_PAIRS, CandidateTable, ToricModel,
                    ToricValuation, builtin_model, delta_p_search,
                    primitive_candidates)

# Most cuts the truncation probe of ``scan`` may make: each cut runs a
# full candidate search, so a wider model is refused before the first.
MAX_PROBE_CUTS = 400


class RunConfig(NamedTuple):
    command: str
    model: str = "p2"
    anticanonical: bool = False
    p_grid: tuple[int, ...] = ()
    bound: int = 3
    m_grid: tuple[int, ...] = ()
    fmt: str = "csv"
    seed: int = 0
    out: str | None = None
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
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the decoder can recurse, or an integer
        # literal over Python's digit limit.
        raise StructureError(f"model file {name!r} cannot be decoded: "
                             f"{exc}") from None
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


def _csv_float(x: float) -> str:
    """Every float of a CSV table: 12 significant digits."""
    return f"{x:.12g}"


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
        try:
            doc = report.to_json_dict()
        except ValueError:  # str() of an int past the digit limit
            raise DomainError("an exact value exceeds Python's limit of "
                              f"{sys.get_int_max_str_digits()} digits for "
                              "integer string conversion") from None
        _emit(cfg, json.dumps(doc, indent=2) + "\n")
    else:
        header = ["p", "delta_upper", "argmin", "alpha_upper",
                  "threshold", "verdict"]
        _emit(cfg, _csv_text(header, _invariant_rows(report)))
    return 0


def _invariant_rows(report: InvariantReport) -> list[dict]:
    """One CSV row of ``invariants`` per order of the report."""
    return [{"p": r.p, "delta_upper": _csv_float(r.delta_upper),
             "argmin": " ".join(str(x) for x in r.argmin),
             "alpha_upper": str(report.alpha_upper),
             "threshold": "" if r.threshold is None
                          else _csv_float(r.threshold),
             "verdict": r.verdict or ""}
            for r in report.rows]


# ---------------------------------------------------------------------------
# verification suite


def cmd_verify(cfg: RunConfig) -> int:
    from .selfcheck import MUTANT_CHECK, VERIFY_CHECKS
    checks = VERIFY_CHECKS + ((MUTANT_CHECK,) if cfg.inject_mutant else ())
    results = []
    failures = 0
    for name, fn in checks:
        rng = random.Random(f"{cfg.seed}:{name}")
        try:
            fn(rng)
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
    if cfg.fmt == "json":
        doc = {"seed": cfg.seed, "failures": failures, "results": results}
        _emit(cfg, json.dumps(doc, indent=2) + "\n")
    else:
        _emit(cfg, _csv_text(["status", "property", "detail"], results))
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# scans


def cmd_scan(cfg: RunConfig) -> int:
    from .geodesic import verify_moment_identity
    model = _resolve_model(cfg)
    p_grid = cfg.p_grid
    if not p_grid:
        raise DomainError("scan needs an order grid: pass --p")
    # The probe's rows come last, but its cuts are made first, so that the
    # cut budget and one moment-pair budget over every table the command
    # searches refuse a wide model before any search or section walk.
    p0 = p_grid[0]
    cuts = _probe_cuts(model)
    tables = [m for m in (*(cut for _, cut in cuts), model)
              if m is not None and m.is_q_gorenstein]
    pairs = len(primitive_candidates(model.n, cfg.bound)) * sum(
        len(m.P.triangulation()) for m in tables)
    if pairs > MAX_MOMENT_PAIRS:
        raise DomainError(
            f"scan's {len(tables)} candidate tables make {pairs} moment "
            f"pairs, over the budget of MAX_MOMENT_PAIRS = {MAX_MOMENT_PAIRS}")
    probe = _truncation_probe(cfg, cuts, p0)
    table = CandidateTable(model, cfg.bound, (1, *p_grid))
    base = table.delta(1)
    val = ToricValuation(model, base.argmin)
    curve = table.curve(base.argmin)
    rows = []
    for p in p_grid:
        rows.append({"scan": "order", "x": p, "name": "h_stat",
                     "value": _csv_float(curve.h_stat(p)),
                     "status": "proven-monotone"})
    for p in p_grid:
        rows.append({"scan": "order", "x": p, "name": "r_stat",
                     "value": _csv_float(curve.r_stat(p)),
                     "status": "conjectural"})
    for p in p_grid:
        search = table.delta(p)
        rows.append({"scan": "order", "x": p, "name": "delta_upper",
                     "value": _csv_float(search.value),
                     "status": "upper-bound"})
    levels = cfg.m_grid or (1, 2, 4, 8)
    # --m may be unsorted or repeated; the identity takes a strictly
    # increasing grid, so one call covers the distinct levels.
    report = verify_moment_identity(model, val, p0,
                                    m_grid=sorted(set(levels)))
    gaps = {m: gap for m, _, _, gap in report.rows}
    for m in levels:
        rows.append({"scan": "level", "x": m, "name": "moment_gap",
                     "value": _csv_float(gaps[m]), "status": "raw"})
    rows.extend(probe)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({"rows": rows}, indent=2) + "\n")
    else:
        _emit(cfg, _csv_text(["scan", "x", "name", "value", "status"], rows))
    return 0


def _probe_cuts(model: ToricModel) -> list[tuple[Fraction, ToricModel | None]]:
    """The truncation probe's cuts of the dilated model 4P at integer
    heights along the first axis, at most ``MAX_PROBE_CUTS`` of them:
    each cut's height, scaled to [0, 1], and its toric model, or None
    when the cut has a vertex off the lattice."""
    big = model.P.dilate(4)
    xs = [w[0] for w in big.vertices]
    lo, hi = min(xs), max(xs)
    if hi - lo > MAX_PROBE_CUTS:
        raise DomainError(f"the truncation probe needs {hi - lo} cuts, over "
                          f"the budget of {MAX_PROBE_CUTS}")
    normal = tuple([-1] + [0] * (model.n - 1))
    cuts = []
    for c in range(int(lo) + 1, int(hi) + 1):
        try:
            cut = ToricModel(big.intersect([Halfspace(normal, Fraction(-c))]))
        except StructureError:
            cut = None
        cuts.append((Fraction(c - lo, hi - lo), cut))
    return cuts


def _truncation_probe(cfg: RunConfig, cuts, p: int):
    """Continuity probe: the threshold bound of each cut, one candidate
    search each.  A cut off the lattice, or one the search refuses as
    input (StructureError, UnsupportedModelError, DomainError), gets a
    blank value; an InvariantViolation propagates."""
    rows = []
    for x, cut in cuts:
        value = ""
        if cut is not None:
            try:
                value = _csv_float(delta_p_search(cut, p, cfg.bound).value)
            except (StructureError, UnsupportedModelError, DomainError):
                pass
        rows.append({"scan": "truncation", "x": f"{x}",
                     "name": "delta_upper", "value": value, "status": "probe"})
    return rows


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``DomainError``, so that they exit 3 with
    one JSON object on stderr like every other input error."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltap",
        description="Moment-type valuative invariants on toric models")
    sub = parser.add_subparsers(dest="command", required=True)
    # An option left out keeps its RunConfig default.  No abbreviations,
    # so that "invariants --m 4" is refused rather than read as --model.
    invariants, verify, scan = (
        sub.add_parser(name, help=helptext, allow_abbrev=False,
                       argument_default=argparse.SUPPRESS)
        for name, helptext in (
            ("invariants", "threshold table over an order grid"),
            ("verify", "run the named property suite"),
            ("scan", "emit plot-ready grids, nothing asserted")))
    for p in (invariants, scan):
        p.add_argument("--model", help="built-in name or polytope JSON path")
        p.add_argument("--anticanonical", action="store_true",
                       help="replace the model by its anticanonical polytope")
        p.add_argument("--p", dest="p_grid", metavar="P",
                       help="comma-separated order grid")
        p.add_argument("--bound", type=int,
                       help="candidate box radius for searches")
    scan.add_argument("--m", dest="m_grid", metavar="M",
                      help="comma-separated level grid")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--inject-mutant", action="store_true",
                        help="include a deliberately broken curve")
    for p in (invariants, verify, scan):
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--out", help="output file (default stdout)")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    opts = vars(args)
    if "bound" in opts and opts["bound"] < 1:
        raise DomainError("--bound must be >= 1")
    for grid in ("p_grid", "m_grid"):
        if grid in opts:
            opts[grid] = _parse_grid(opts[grid])
    return RunConfig(**opts)


def _report_error(exc: Exception, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc),
           "witness": getattr(exc, "witness", None)}
    sys.stderr.write(json.dumps(doc, default=str) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, after printing the help text
        return exc.code
    except DomainError as exc:
        return _report_error(exc, 3)
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
    except (OSError, OverflowError, json.JSONDecodeError) as exc:
        return _report_error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
