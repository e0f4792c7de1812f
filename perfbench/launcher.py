"""Start timed commands from a small process and report their rusage.

``run.py`` starts this as ``python3 -S perfbench/launcher.py`` in the
checkout root, with the environment the commands need.  Each stdin line
is a JSON request ``{"argv": [...], "stdout": PATH, "stderr": PATH}``;
the launcher runs ``python3 ARGV...`` with those files, waits for it and
answers with one JSON line ``{"wall_s": ..., "maxrss_kb": ..., "code":
...}``.  It ends when stdin closes.

On Linux a child's ``ru_maxrss`` is never below the resident size of
the process that started it, so the commands are started from here and
not from ``run.py``, which is several megabytes larger.
"""

import json
import os
import resource
import sys
import time

# Each command inherits this CPU-time limit, so a runaway command is
# killed and counted as failed instead of holding the run past its limit.
COMMAND_CPU_SECONDS = 120


def run(req: dict) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    for fd, key in ((1, "stdout"), (2, "stderr")):
        actions.append((os.POSIX_SPAWN_OPEN, fd, req[key],
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *req["argv"]],
                         os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_CPU)
    if hard == resource.RLIM_INFINITY or hard > COMMAND_CPU_SECONDS:
        resource.setrlimit(resource.RLIMIT_CPU, (COMMAND_CPU_SECONDS, hard))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
