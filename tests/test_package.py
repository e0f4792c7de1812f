"""The package surface: lazy exports, the layers each command loads,
and the result records.

Each command runs in a fresh interpreter without a bytecode cache, so
every module it imports is compiled and executed on every run.  These
tests pin which ``deltap`` modules a bare import and each subcommand
load, that none of them loads ``dataclasses`` (no module generates code
at import), that the lazily resolved exports are the library's objects,
and that every result record is an immutable named tuple.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import deltap
from deltap import cli, geodesic, invariants, toric
from deltap.errors import DeltapError

SRC = Path(deltap.__file__).resolve().parents[1]

# The layers of ``invariants``: the filtration, geodesic and Okounkov-body
# modules, and the verify suite, are not among them.
INVARIANTS_LAYERS = {"deltap", "deltap.cli", "deltap.errors", "deltap.linalg",
                     "deltap.numeric", "deltap.piecewise", "deltap.geometry",
                     "deltap.volume_curve", "deltap.toric",
                     "deltap.invariants"}
SCAN_LAYERS = INVARIANTS_LAYERS | {"deltap.filtration", "deltap.geodesic",
                                   "deltap.okounkov"}
VERIFY_LAYERS = SCAN_LAYERS | {"deltap.selfcheck"}


def loaded_modules(code: str) -> set[str]:
    """The deltap modules, and ``dataclasses`` if it was imported, loaded
    after running ``code`` in a fresh interpreter; ``code`` must leave
    stdout empty."""
    probe = (code + "\nimport sys\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m in ('deltap', 'dataclasses') "
             "or m.startswith('deltap.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import json\n" + probe],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return set(json.loads(proc.stdout))


def test_bare_import_loads_no_submodule():
    # dir() lists every export without resolving one
    code = "import deltap\nassert set(deltap.__all__) <= set(dir(deltap))"
    assert loaded_modules(code) == {"deltap"}


def test_library_names_load_no_dataclasses():
    # the names the benchmark's library calls import, resolved together
    code = ("from deltap import (ToricModel, ToricValuation, basis_moment, "
            "builtin_model, compatible_basis, random_admissible_curve, "
            "random_flag_filtration, rounding_sandwich, section_filtration, "
            "sup_over_bases_oracle, volume_curve_of)")
    assert "dataclasses" not in loaded_modules(code)


@pytest.mark.parametrize("argv, layers", [
    (["invariants", "--model", "pn:3", "--anticanonical", "--p", "1,2",
      "--bound", "1"], INVARIANTS_LAYERS),
    (["scan", "--model", "p2", "--p", "1", "--m", "1,2", "--bound", "1"],
     SCAN_LAYERS),
    (["verify", "--seed", "0"], VERIFY_LAYERS),
])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    out = tmp_path / "out.txt"
    code = ("from deltap import cli\n"
            f"assert cli.main({argv + ['--out', str(out)]!r}) == 0")
    loaded = loaded_modules(code)
    assert "dataclasses" not in loaded
    assert loaded == layers
    assert out.read_text()


def test_exports_are_the_objects_of_their_home_modules():
    for name in deltap.__all__:
        obj = getattr(deltap, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
    namespace = {}
    exec("from deltap import *", namespace)
    assert set(deltap.__all__) <= set(namespace)
    assert set(deltap.__all__) <= set(dir(deltap))
    with pytest.raises(AttributeError, match="no_such_name"):
        deltap.no_such_name
    with pytest.raises(ImportError):
        exec("from deltap import no_such_name", {})


RECORDS = ("RunConfig", "DeltaSearchResult", "KStabilityVerdict",
           "InvariantReport", "MomentIdentityReport", "RadialProfile",
           "TestCurve1D", "GeodesicRay1D")


@pytest.fixture(scope="module")
def records():
    """One instance of each result record, by class name."""
    model = toric.builtin_model("p2-anticanonical")
    val = toric.ToricValuation(model, (1, 0))
    curve = geodesic.TestCurve1D.make([0, 1], [0, -1])
    built = [
        cli.RunConfig("invariants", "p2", False, (1,), 1, (), "csv", 0, None),
        toric.delta_p_search(model, 1, 1),
        invariants.kstability_verdict(model, 1, 1),
        invariants.delta_family(model, (1,), 1),
        geodesic.verify_moment_identity(model, val, 1, m_grid=(1,)),
        toric.volume_curve_of(model, val).radial_profile(),
        curve,
        geodesic.legendre(curve),
    ]
    return {type(record).__name__: record for record in built}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_immutable(records, name):
    record = records[name]
    assert isinstance(record, tuple)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"


@pytest.mark.parametrize("name, field, bad", [
    ("RadialProfile", "fpow", lambda record: record.fpow.scale(2)),
    ("TestCurve1D", "values", lambda record: (Fraction(0), Fraction(1))),
    ("GeodesicRay1D", "final_slope", lambda record: Fraction(-1)),
])
def test_checked_records_check_replaced_fields(records, name, field, bad):
    # the named-tuple constructors _make and _replace run the same checks
    # as a direct call
    record = records[name]
    fields = [bad(record) if f == field else value
              for f, value in zip(record._fields, record)]
    with pytest.raises(DeltapError):
        type(record)._make(fields)
    with pytest.raises(DeltapError):
        record._replace(**{field: bad(record)})


def _bench_names(source: str) -> dict[str, tuple]:
    """The literal tuples bound to TRACED and COUNTED in ``source``."""
    import ast
    return {target.id: ast.literal_eval(node.value)
            for node in ast.parse(source).body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("TRACED",
                                                               "COUNTED")}


def test_every_benchmark_traced_name_resolves():
    """The benchmark's tracer wraps functions by (module, attribute path);
    a renamed or deleted one would fail every traced run."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    names = _bench_names(tracer.read_text(encoding="utf-8"))
    assert set(names) == {"TRACED", "COUNTED"}
    missing = []
    for module, path in names["TRACED"] + names["COUNTED"]:
        obj = importlib.import_module(f"deltap.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert not missing
