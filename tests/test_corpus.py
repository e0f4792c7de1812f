"""The frozen CLI corpus: every command of ``tests/corpus/manifest.json``
still gives its recorded exit code, stdout and stderr byte for byte.

``tests/corpus/regen.py`` rewrites the fixtures when a change of output
is meant.  The benchmark's fixed-input commands are in the corpus too,
and their frozen stdout in ``perfbench/expected/`` must agree with it.
"""

import json
from pathlib import Path

import pytest

from corpus.regen import MANIFEST, STDOUT, run

ENTRIES = json.loads(MANIFEST.read_text(encoding="utf-8"))
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

# The benchmark's fixed-input command lines and their frozen stdout;
# ``verify`` prints the same table for every seed.
BENCH_COMMANDS = [
    ("invariants --model p2-anticanonical --p 1,2,3,4 --bound 3",
     "p2-anticanonical.csv"),
    ("invariants --model pn:2 --anticanonical --p 1,2,4 --bound 3",
     "pn2-anticanonical.csv"),
    ("invariants --model pn:3 --anticanonical --p 1,2 --bound 1",
     "pn3-anticanonical.csv"),
    ("scan --model p2 --p 1,2,3 --m 1,2,4,8", "scan-p2.csv"),
    *((f"verify --seed {seed}", "verify.csv") for seed in range(16)),
]


def _stdout(name: str) -> bytes:
    return (STDOUT / f"{name}.out").read_bytes()


def test_every_corpus_command_prints_its_frozen_bytes():
    assert len(ENTRIES) == 83
    differ = []
    for entry in ENTRIES:
        code, out, err = run(entry["argv"])
        if (code, out.encode(), err) != (entry["exit"], _stdout(entry["name"]),
                                          entry["stderr"]):
            differ.append(entry["name"])
    assert not differ, f"output differs from tests/corpus on {differ}"


@pytest.mark.parametrize("command, expected", BENCH_COMMANDS)
def test_bench_fixed_outputs_equal_the_corpus(command, expected):
    names = [e["name"] for e in ENTRIES
             if e["argv"] in (command.split(), [*command.split(), "--format",
                                                "csv"])]
    assert len(names) == 1
    assert _stdout(names[0]) == (BENCH_EXPECTED / expected).read_bytes()

