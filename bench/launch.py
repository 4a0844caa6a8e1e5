"""Start one command, wait for it, and report its exit code, wall time and
peak RSS as JSON.

    python3 bench/launch.py REPORT.json COMMAND [ARG...]

The benchmark starts every emoscope invocation through this small process.
On Linux a child's ru_maxrss starts from the resident size of the process
that spawned it, so a child started straight from the benchmark, which
holds numpy and the planted truth, would report the benchmark's memory
whenever emoscope's own peak is smaller. Stdlib only, and nothing imported
beyond what the interpreter loads anyway, to keep this process small.

Wall time runs from just before the spawn to the end of the wait; the
spawn instant goes to the child in EMOSCOPE_BENCH_T0 (a time.perf_counter
value, which is system-wide on Linux) for the traced run's import span.
"""

import json
import os
import sys
import time

T0_ENV = "EMOSCOPE_BENCH_T0"


def main(argv) -> int:
    report, command = argv[0], argv[1:]
    env = dict(os.environ)
    t0 = time.perf_counter()
    env[T0_ENV] = repr(t0)
    pid = os.posix_spawn(command[0], command, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        # Linux reports ru_maxrss in KiB: the child's own peak, or that of
        # a reaped child of its own if larger (a process-pool scan counts)
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
