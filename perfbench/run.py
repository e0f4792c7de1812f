"""deltap benchmark: closed-loop CLI and library workloads.

Usage, from the root of a checkout (standard library only):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's commands in order, each in a fresh
Python process, and starts the next only when the previous one has
ended: a user at a terminal, or a script.  A pass is one run over the
command list.

With ``--trace 0`` it measures set-up time (a fresh ``import
deltap.cli``, several times), then repeats passes while fewer than S
seconds have gone by, and prints the end-to-end metrics:

* ``wall_s``: wall time of one pass, the median over the passes;
* ``setup_s``: wall time of a fresh ``import deltap.cli``, the median;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any command of a pass,
  the median over the passes.

With ``--trace 1`` it runs one pass as above and then two passes under
``tracer.py``, which wraps the public functions of each ``src/deltap``
module from outside the program, and prints per-function calls and self
time, two waste ratios and the tracing overhead.  S does not apply.

Every command's output is checked: fixed-input commands against stdout
frozen in ``expected/`` (``freeze.py`` writes it), seeded ones by an
independent route.  Seeded inputs are made here from N; the program
only receives the generated model JSON or argv.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the run metadata and the
reasons for any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"
TRACER = BENCH / "tracer.py"
LIBCALLS = BENCH / "libcalls.py"
LAUNCHER = BENCH / "launcher.py"
CHECKS = BENCH / "checks.py"
SETUP_SAMPLES = 9  # at least, per run
SETUP_PER_PASS = 3


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]  # arguments to the Python interpreter
    expect: str | None = None  # frozen stdout file under expected/
    check: tuple[str, ...] = ()  # checks.py arguments for seeded output


@dataclass
class Result:
    wall_s: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


# ---------------------------------------------------------------------------
# seeded inputs


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def random_simplex(rng: random.Random, n: int, span: int, bound: int,
                   pieces: int) -> list[tuple[int, ...]]:
    """A lattice n-simplex with vertices in [0, span]^n that is not
    unimodular, and whose volume curves over the candidate box of radius
    ``bound`` have ``pieces`` pieces in total.

    The piece count fixes how much work the curve builds do, so every
    seed costs about the same while the simplex itself changes.
    """
    box = [v for v in itertools.product(range(-bound, bound + 1), repeat=n)
           if any(v)]
    while True:
        pts = [tuple(rng.randint(0, span) for _ in range(n))
               for _ in range(n + 1)]
        if abs(_det([[a - b for a, b in zip(p, pts[0])]
                     for p in pts[1:]])) < 2:
            continue
        total = sum(len({sum(a * b for a, b in zip(p, v)) for p in pts}) - 1
                    for v in box)
        if total == pieces:
            return pts


def write_model(path: Path, pts: list[tuple[int, ...]]) -> str:
    """Write a model JSON file; its path relative to the checkout root."""
    doc = {"dim": len(pts[0]), "vertices": [[str(x) for x in p] for p in pts]}
    path.write_text(json.dumps(doc) + "\n")
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# output checks


def verdict(cmd: Command, res: Result) -> str | None:
    """None when the command's exit code and stdout are right, else the
    reason.  Seeded outputs go to checks.py in a process of its own."""
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.decode()[-300:]}"
    if cmd.expect is not None:
        if res.stdout != (EXPECTED / cmd.expect).read_bytes():
            return f"stdout differs from expected/{cmd.expect}"
        return None
    proc = subprocess.run([sys.executable, str(CHECKS), *cmd.check],
                          input=res.stdout, capture_output=True, cwd=ROOT,
                          env=child_env(), timeout=120)
    if proc.returncode != 0:
        return (proc.stdout or proc.stderr).decode().strip()[-300:]
    return None


# ---------------------------------------------------------------------------
# workloads


def cli(name: str, args: str, **kw) -> Command:
    return Command(name, ("-m", "deltap.cli", *args.split()), **kw)


def lib(part: str, seed: int, **kw) -> Command:
    return Command(part, (str(LIBCALLS), part, str(seed)), **kw)


def workload_cli_d2(seed: int, work: Path) -> list[Command]:
    """All three subcommands in dimension 2: everyday use."""
    rng = random.Random(f"cli-d2:{seed}")
    path = write_model(work / "polygon.json", random_simplex(rng, 2, 6, 2, 48))
    return [
        cli("p2-anticanonical", "invariants --model p2-anticanonical "
            "--p 1,2,3,4 --bound 3", expect="p2-anticanonical.csv"),
        cli("pn2-anticanonical", "invariants --model pn:2 --anticanonical "
            "--p 1,2,4 --bound 3", expect="pn2-anticanonical.csv"),
        cli("scan-p2", "scan --model p2 --p 1,2,3 --m 1,2,4,8",
            expect="scan-p2.csv"),
        # Every property passes on every seed, so the output is fixed.
        cli("verify", f"verify --seed {seed}", expect="verify.csv"),
        cli("random-polygon", f"invariants --model {path} --p 1,2 --bound 2 "
            "--format json", check=("routes", path)),
    ]


def workload_search_d3(seed: int, work: Path) -> list[Command]:
    """Candidate searches in dimensions 3 and 4, where survival curves
    take most of the time."""
    rng = random.Random(f"search-d3:{seed}")
    path = write_model(work / "tetrahedron.json",
                       random_simplex(rng, 3, 4, 1, 64))
    return [
        cli("pn3-anticanonical", "invariants --model pn:3 --anticanonical "
            "--p 1,2 --bound 1", expect="pn3-anticanonical.csv"),
        cli("random-tetrahedron", f"invariants --model {path} --p 1 "
            "--bound 1 --format json", check=("routes", path)),
        lib("pn4-slice", seed, expect="pn4-slice.json"),
    ]


def workload_exact_lib(seed: int, work: Path) -> list[Command]:
    """Library use with no polytope search: neither survival curves nor
    the candidate search run here."""
    return [
        lib("oracle", seed, check=("oracle",)),
        lib("sections", seed, expect="sections.json"),
        lib("curves", seed, check=("curves",)),
    ]


WORKLOADS = {"cli-d2": workload_cli_d2, "search-d3": workload_search_d3,
             "exact-lib": workload_exact_lib}


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """A launcher.py process that starts, waits for and times commands,
    so that each command's own peak RSS is known."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True)

    def spawn(self, argv: tuple[str, ...]) -> Result:
        """Run ``python3 ARGV...`` in a fresh interpreter to completion."""
        out, err = self.work / "stdout", self.work / "stderr"
        req = {"argv": list(argv), "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        rep = json.loads(line)
        return Result(rep["wall_s"], rep["maxrss_kb"], rep["code"],
                      out.read_bytes(), err.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tally:
    """Attempted and failed commands, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._seen: dict[tuple, str | None] = {}

    def judge(self, cmd: Command, res: Result) -> None:
        key = (cmd.name, res.code, res.stdout)
        if key not in self._seen:
            self._seen[key] = verdict(cmd, res)
        self.fail_if(cmd.name, self._seen[key])

    def fail_if(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {reason}")


def run_pass(commands: list[Command], launcher: Launcher, tally: Tally,
             trace_dir: Path | None = None) -> list[Result]:
    results = []
    for i, cmd in enumerate(commands):
        argv = cmd.argv
        if trace_dir is not None:
            argv = (str(TRACER), str(trace_dir / f"{i}.spans"), *argv)
        res = launcher.spawn(argv)
        tally.judge(cmd, res)
        results.append(res)
    return results


def pass_wall(results: list[Result]) -> float:
    return sum(r.wall_s for r in results)


SETUP_ARGV = ("-c", "import deltap.cli")


def warm_setup(launcher: Launcher) -> None:
    """One untimed import, which may write the bytecode cache."""
    first = launcher.spawn(SETUP_ARGV)
    if first.code != 0:
        raise SystemExit(f"cannot import deltap.cli from {SRC}: "
                         f"{first.stderr.decode()[-300:]}")


def setup_sample(launcher: Launcher) -> float:
    return launcher.spawn(SETUP_ARGV).wall_s


# ---------------------------------------------------------------------------
# spans


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for col, code in (("name", "i"), ("parent", "i"), ("start", "d"),
                          ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[col] = arr
    return header, cols


def aggregate(paths: list[Path]) -> dict:
    """Calls, self time and outermost total time per span name, hot-call
    counts, and distinct curve keys, summed over one traced pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    keys: set[tuple[int, str]] = set()
    for proc, path in enumerate(paths):
        header, cols = read_spans(path)
        names, name, parent = header["names"], cols["name"], cols["parent"]
        for label in names:
            calls.setdefault(label, 0)
            self_s.setdefault(label, 0.0)
            total_s.setdefault(label, 0.0)
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        own = list(dur)
        for i, par in enumerate(parent):
            if par >= 0:
                own[par] -= dur[i]
        for i, nid in enumerate(name):
            label = names[nid]
            calls[label] += 1
            self_s[label] += own[i]
            anc = parent[i]
            while anc >= 0 and name[anc] != nid:
                anc = parent[anc]
            if anc < 0:  # not inside another span of the same function
                total_s[label] += dur[i]
        for label, k in header["counts"].items():
            counts[label] = counts.get(label, 0) + k
        keys.update((proc, key) for key in header["keys"].values())
    return {"calls": calls, "self_s": self_s, "total_s": total_s,
            "counts": counts, "distinct_curves": len(keys)}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_counts(agg: dict) -> dict[str, float]:
    """The per-layer figures that must repeat exactly for a seed."""
    calls = agg["calls"]
    out = {f"{k}.calls": v for k, v in calls.items()}
    out.update({f"{k}.calls": v for k, v in agg["counts"].items()})
    out["toric.volume_curve_of.per_candidate"] = _ratio(
        calls["toric.volume_curve_of"], agg["distinct_curves"])
    out["geometry.facet_enumeration.per_curve"] = _ratio(
        calls["geometry.facet_enumeration"], calls["geometry.survival_curve"])
    return out


# ---------------------------------------------------------------------------
# modes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(commands: list[Command], launcher: Launcher, seconds: int,
                 tally: Tally) -> tuple[dict, dict]:
    # Set-up samples are taken between passes, so that their median,
    # like that of the passes, spans the whole run and not one stretch
    # of it: the speed of a shared machine drifts over seconds.
    warm_setup(launcher)
    setup: list[float] = []
    walls, peaks, per_cmd = [], [], {c.name: [] for c in commands}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setup += [setup_sample(launcher) for _ in range(SETUP_PER_PASS)]
        results = run_pass(commands, launcher, tally)
        walls.append(pass_wall(results))
        peaks.append(max(r.maxrss_kb for r in results) / 1024)
        for cmd, res in zip(commands, results):
            per_cmd[cmd.name].append(res.wall_s)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(launcher))
    metrics = {"wall_s": metric(statistics.median(walls), "s"),
               "setup_s": metric(statistics.median(setup), "s"),
               "peak_rss_mb": metric(statistics.median(peaks), "MB")}
    meta = {"passes": len(walls), "pass_wall_s": walls,
            "setup_samples_s": setup, "peak_rss_mb": peaks,
            "command_median_s": {k: statistics.median(v)
                                 for k, v in per_cmd.items()}}
    return metrics, meta


def run_traced(commands: list[Command], launcher: Launcher,
               tally: Tally) -> tuple[dict, dict]:
    plain = run_pass(commands, launcher, tally)
    aggs, walls = [], []
    for rep in range(2):
        trace_dir = launcher.work / f"trace{rep}"
        trace_dir.mkdir()
        results = run_pass(commands, launcher, tally, trace_dir)
        walls.append(pass_wall(results))
        for cmd, ref, res in zip(commands, plain, results):
            if res.stdout != ref.stdout:
                tally.fail_if(cmd.name, "traced stdout differs from untraced")
        aggs.append(aggregate([trace_dir / f"{i}.spans"
                               for i in range(len(commands))]))
    counts = [layer_counts(a) for a in aggs]
    unsteady = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    metrics = {}
    for label, calls in aggs[0]["calls"].items():
        metrics[f"{label}.calls"] = metric(calls, "count")
        metrics[f"{label}.self_s"] = metric(
            statistics.mean(a["self_s"][label] for a in aggs), "s")
    for key, value in counts[0].items():
        metrics.setdefault(key, metric(value, "ratio" if ".per_" in key
                                       else "count"))
    overhead = statistics.mean(walls) - pass_wall(plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    totals = aggs[0]["total_s"]
    top = sorted(totals, key=totals.get, reverse=True)[:5]
    meta = {"untraced_wall_s": pass_wall(plain), "traced_wall_s": walls,
            "top_total_s": {k: totals[k] for k in top},
            "survival_curve_share": totals.get("geometry.survival_curve", 0.0)
            / walls[0],
            "nondeterministic_counts": unsteady}
    return metrics, meta


def src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deltap" / "cli.py").is_file():
        sys.stderr.write(f"no deltap sources under {SRC}; run from the "
                         "root of a deltap checkout\n")
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        commands = WORKLOADS[args.workload](args.seed, work)
        tally = Tally()
        with Launcher(work) as launcher:
            if args.trace:
                metrics, meta = run_traced(commands, launcher, tally)
                correct = (tally.failed == 0
                           and not meta["nondeterministic_counts"])
            else:
                metrics, meta = run_untraced(commands, launcher, args.seconds,
                                             tally)
                correct = tally.failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                python=platform.python_version(), nproc=os.cpu_count(),
                error_rate=tally.failed / tally.attempted,
                failures=tally.reasons, **src_facts())
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
