"""Write the frozen stdout of the benchmark's fixed-input commands.

Usage, from the root of a checkout:

    python3 perfbench/freeze.py

Runs every command that names an ``expected/`` file, once, and writes
its stdout there.  Run it only at a commit whose output is known to be
right: ``run.py`` counts every later difference as a failure.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.EXPECTED.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        with run.Launcher(work) as launcher:
            return freeze(launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def freeze(launcher: run.Launcher) -> int:
    for build in run.WORKLOADS.values():
        for cmd in build(0, launcher.work):
            if cmd.expect is None:
                continue
            res = launcher.spawn(cmd.argv)
            if res.code != 0:
                sys.stderr.write(f"{cmd.name}: exit code {res.code}\n")
                return 1
            (run.EXPECTED / cmd.expect).write_bytes(res.stdout)
            print(f"wrote expected/{cmd.expect}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
