"""Self-test of the benchmark's failure counting.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs two ``cli-d2`` commands once each: the README's pn:2 table, whose
stdout is frozen, and the seeded random polygon, whose rows are checked
against the concave-transform route.  It judges both outputs as they
are, then judges them again with one byte of the frozen file changed
and with one row's ``s_p`` changed, and exits 0 only when the clean
outputs pass and each corruption counts as one failed command.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        commands = {c.name: c for c in run.workload_cli_d2(0, work)}
        fixed = commands["pn2-anticanonical"]
        seeded = commands["random-polygon"]
        with run.Launcher(work) as launcher:
            fixed_out = launcher.spawn(fixed.argv)
            seeded_out = launcher.spawn(seeded.argv)
        clean = run.Tally()
        clean.judge(fixed, fixed_out)
        clean.judge(seeded, seeded_out)

        corrupt = run.Tally()
        run.EXPECTED = shutil.copytree(run.EXPECTED, work / "expected")
        frozen = run.EXPECTED / fixed.expect
        data = bytearray(frozen.read_bytes())
        data[len(data) // 2] ^= 1
        frozen.write_bytes(bytes(data))
        corrupt.judge(fixed, fixed_out)
        doc = json.loads(seeded_out.stdout)
        row = doc["rows"][0]
        row["s_p"] = str(Fraction(row["s_p"]) + Fraction(1, 1000))
        corrupt.judge(seeded, dataclasses.replace(
            seeded_out, stdout=json.dumps(doc, indent=2).encode() + b"\n"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, tally in (("clean", clean), ("corrupted", corrupt)):
        print(f"{label}: attempted {tally.attempted}, failed {tally.failed}, "
              f"error_rate {tally.failed / tally.attempted}")
        for reason in tally.reasons:
            print(f"  {reason}")
    ok = clean.failed == 0 and corrupt.failed == corrupt.attempted == 2
    print("self-test PASS" if ok else "self-test FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
