"""Rewrite the frozen CLI corpus that ``tests/test_corpus.py`` checks.

Usage, from the root of a checkout:

    python3 tests/corpus/regen.py

Runs every command of ``COMMANDS`` through ``deltap.cli.main`` in this
process, with this directory as the working directory, so that model
paths in argv are relative to it.  Writes the model files of ``MODELS``
under ``models/``, each command's argv, exit code and stderr to
``manifest.json`` and its stdout to ``stdout/<name>.out``.  For each
file it changes it prints the path and the number of changed lines.

Run it only when a change of output is meant, and copy what it prints
into CHANGES.md with the reason.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent
MANIFEST = CORPUS / "manifest.json"
STDOUT = CORPUS / "stdout"

HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
SQUARE = [(b, c) for b in (-1, 1) for c in (-1, 1)]
MODELS = {
    "hexagon-x-square": [a + b for a in HEXAGON for b in SQUARE],
    "hexagon-x-hexagon": [a + b for a in HEXAGON for b in HEXAGON],
}

# (model, --p, --bound); the grids of p2-anticanonical, pn:2 and pn:3
# are those of the benchmark's fixed-input commands.
BUILTINS = [
    ("p2", "1,2,3", "2"),
    ("p2-anticanonical", "1,2,3,4", "3"),
    ("p1xp1", "1,2,3", "2"),
    ("hirzebruch-1", "1,2,3", "2"),
    ("hirzebruch-2", "1,2,3", "2"),
    ("hirzebruch-3", "1,2,3", "2"),
    ("pn:1", "1,2,3", "2"),
    ("pn:2", "1,2,4", "3"),
    ("pn:3", "1,2", "1"),
    ("pn:4", "1,2", "1"),
]


def _commands() -> list[tuple[str, list[str]]]:
    cmds = []
    for model, p, bound in BUILTINS:
        for anti in ((), ("--anticanonical",)):
            for fmt in ("csv", "json"):
                name = "-".join(["invariants", model.replace(":", ""),
                                 *("anti" for _ in anti), fmt])
                cmds.append((name, ["invariants", "--model", model, *anti,
                                    "--p", p, "--bound", bound,
                                    "--format", fmt]))
    for model in MODELS:
        cmds.append((f"invariants-{model}",
                     ["invariants", "--model", f"models/{model}.json",
                      "--p", "1,2,3,4", "--bound", "3"]))
    for name, args in [
            ("scan-p2", "--model p2 --p 1,2,3 --m 1,2,4,8"),
            ("scan-p2-anticanonical", "--model p2 --anticanonical --p 1,2,3"),
            ("scan-p1xp1-json", "--model p1xp1 --p 1,2 --format json"),
            ("scan-pn3-m16", "--model pn:3 --p 1,2 --m 16"),
            ("scan-hirzebruch-1-levels", "--model hirzebruch-1 --p 1,3 "
             "--m 3,1,3"),
            ("scan-p2-anticanonical-bound-1",
             "--model p2-anticanonical --p 2 --bound 1 --format json")]:
        cmds.append((name, ["scan", *args.split()]))
    for mutant in ((), ("--inject-mutant",)):
        for seed in range(16):
            name = "-".join(["verify", str(seed), *(a.strip("-")
                                                    for a in mutant)])
            cmds.append((name, ["verify", "--seed", str(seed), *mutant]))
    cmds += [
        ("error-missing-model-file",
         ["invariants", "--model", "models/missing.json"]),
        ("error-scan-without-orders", ["scan", "--model", "p2"]),
        ("error-bad-order-grid",
         ["invariants", "--model", "p2", "--p", "1,x"]),
    ]
    return cmds


COMMANDS = _commands()


@contextlib.contextmanager
def _in_corpus():
    old = os.getcwd()
    os.chdir(CORPUS)
    try:
        yield
    finally:
        os.chdir(old)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``deltap.cli.main(argv)``, run
    from the corpus directory."""
    from deltap import cli
    out, err = io.StringIO(), io.StringIO()
    with _in_corpus(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _model_text(vertices) -> str:
    return json.dumps({"dim": len(vertices[0]),
                       "vertices": [[str(x) for x in v] for v in vertices]},
                      indent=2) + "\n"


def _write(path: Path, text: str) -> None:
    """Write ``text`` and print the path and the number of changed
    lines, when the file changes."""
    old = path.read_text(encoding="utf-8") if path.exists() else None
    if old == text:
        return
    old = old or ""
    changed = sum(1 for line in difflib.unified_diff(
        old.splitlines(), text.splitlines(), lineterm="", n=0)
        if line[:1] in "+-" and line[:3] not in ("+++", "---"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    print(f"{path.relative_to(CORPUS.parents[1])}: {changed} changed lines")


def main() -> int:
    for name, vertices in MODELS.items():
        _write(CORPUS / "models" / f"{name}.json", _model_text(vertices))
    entries = []
    for name, argv in COMMANDS:
        code, out, err = run(argv)
        entries.append({"name": name, "argv": argv, "exit": code,
                        "stderr": err})
        _write(STDOUT / f"{name}.out", out)
    _write(MANIFEST, json.dumps(entries, indent=1) + "\n")
    kept = {f"{name}.out" for name, _ in COMMANDS}
    for stale in sorted(STDOUT.iterdir()):
        if stale.name not in kept:
            stale.unlink()
            print(f"{stale.relative_to(CORPUS.parents[1])}: removed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(CORPUS.parents[1] / "src"))
    sys.exit(main())
