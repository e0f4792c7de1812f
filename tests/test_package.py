"""The package surface: lazy exports, and the layers each command loads.

Each command runs in a fresh interpreter without a bytecode cache, so
every module it imports is compiled and executed on every run.  These
tests pin which ``deltap`` modules a bare import and each subcommand
load, and that the lazily resolved exports are the library's objects.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltap

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
    """The deltap modules loaded after running ``code`` in a fresh
    interpreter; ``code`` must leave stdout empty."""
    probe = (code + "\nimport sys\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m == 'deltap' or m.startswith('deltap.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import json\n" + probe],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return set(json.loads(proc.stdout))


def test_bare_import_loads_no_submodule():
    # dir() lists every export without resolving one
    code = "import deltap\nassert set(deltap.__all__) <= set(dir(deltap))"
    assert loaded_modules(code) == {"deltap"}


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
    assert loaded_modules(code) == layers
    assert out.read_text()


def test_exports_are_the_objects_of_their_home_modules():
    for name in deltap.__all__:
        obj = getattr(deltap, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
    namespace = {}
    exec("from deltap import *", namespace)
    assert set(deltap.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        deltap.no_such_name
    with pytest.raises(ImportError):
        exec("from deltap import no_such_name", {})
