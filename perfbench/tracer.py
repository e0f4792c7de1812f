"""Run a deltap command with its public functions wrapped in spans.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/tracer.py OUT -m deltap.cli ARGS...
    python3 perfbench/tracer.py OUT SCRIPT ARGS...

The functions in ``TRACED`` are wrapped from outside the program: each
wrapper replaces the original under every name that any ``deltap``
module bound to it, so a call through ``from .geometry import
survival_curve`` is seen too.  A span is (name, start, end, parent);
spans stay in memory and are written to OUT once, when the command
ends.  Functions in ``COUNTED`` are too hot for spans and only count
calls.  The command's stdout, stderr and exit code are left as they are.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import runpy
import sys
import time

# (module, attribute path) of each wrapped function; "VolumeCurve" wraps
# the constructor.
TRACED = (
    ("geometry", "survival_curve"), ("geometry", "facet_enumeration"),
    ("geometry", "triangulate_vertices"), ("geometry", "vertex_enumeration"),
    ("geometry", "lattice_points_in"),
    ("linalg", "rref"), ("linalg", "rank"), ("linalg", "nullspace"),
    ("linalg", "solve_square"), ("linalg", "solve_linear_system"),
    ("piecewise", "lagrange_interpolate"),
    ("piecewise", "integrate_monomial_weighted"),
    ("piecewise", "integrate_real_power"),
    ("numeric", "adaptive_quadrature"),
    ("volume_curve", "VolumeCurve"), ("volume_curve", "VolumeCurve.s_p"),
    ("volume_curve", "VolumeCurve.s_p_real"),
    ("volume_curve", "VolumeCurve.k_stat"),
    ("volume_curve", "curve_from_profile"),
    ("toric", "volume_curve_of"), ("toric", "delta_p_search"),
    ("toric", "alpha_candidate"), ("toric", "log_discrepancy"),
    ("toric", "section_filtration"),
    ("invariants", "delta_family"), ("invariants", "kstability_verdict"),
    ("okounkov", "ConcaveTransform.moment_p"),
    ("filtration", "sup_over_bases_oracle"), ("filtration", "basis_moment"),
    ("filtration", "FlagFiltration.ord_of"),
    ("geodesic", "verify_moment_identity"),
)
COUNTED = (("geometry", "dot"),)
# Spans of this function carry the (model, valuation) pair they built a
# curve for, so that repeated builds can be told from distinct ones.
KEYED = "toric.volume_curve_of"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Recorder:
    """Spans in flat arrays, parents as span indices (-1 for none)."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.keys: dict[int, str] = {}
        self.counts: dict[str, int] = {}

    def write(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.name),
                  "keys": self.keys, "counts": self.counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _span_wrapper(rec: Recorder, nid: int, fn, keyed: bool):
    clock = time.perf_counter
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(rec.name)
        rec.name.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.end.append(0.0)
        if keyed:
            model, val = args[0], args[1]
            rec.keys[idx] = repr((model.P.vertices, val.v))
        stack.append(idx)
        rec.start.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end[idx] = clock()
            stack.pop()
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    rec.counts[name] = 0
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every loaded deltap module."""
    bound = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "deltap"
                               or modname.startswith("deltap.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


def install() -> Recorder:
    """Import deltap and wrap every function in TRACED and COUNTED."""
    importlib.import_module("deltap")
    rec = Recorder([span_name(m, p) for m, p in TRACED])
    for nid, (module, path) in enumerate(TRACED):
        mod = importlib.import_module(f"deltap.{module}")
        name = rec.names[nid]
        owner_path, _, attr = path.rpartition(".")
        if owner_path:  # a method: patch it on its class
            owner = getattr(mod, owner_path)
            setattr(owner, attr, _span_wrapper(rec, nid, getattr(owner, attr),
                                               False))
        elif isinstance(getattr(mod, attr), type):  # a class: its constructor
            cls = getattr(mod, attr)
            cls.__init__ = _span_wrapper(rec, nid, cls.__init__, False)
        else:
            original = getattr(mod, attr)
            wrapper = _span_wrapper(rec, nid, original, name == KEYED)
            if not _rebind(original, wrapper):
                raise RuntimeError(f"{name} is bound nowhere")
    for module, attr in COUNTED:
        mod = importlib.import_module(f"deltap.{module}")
        original = getattr(mod, attr)
        _rebind(original, _count_wrapper(rec, span_name(module, attr),
                                         original))
    return rec


def main(argv: list[str]) -> int:
    if len(argv) < 2 or (argv[1] == "-m" and len(argv) < 3):
        sys.stderr.write("usage: tracer.py OUT (-m MODULE | SCRIPT) ARGS...\n")
        return 2
    out = argv[0]
    rec = install()
    code = 0
    try:
        if argv[1] == "-m":
            sys.argv = [argv[2], *argv[3:]]
            runpy.run_module(argv[2], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv[1:]
            runpy.run_path(argv[1], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        rec.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
