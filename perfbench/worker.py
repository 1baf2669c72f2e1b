"""One warm copy of angular_optim, driven by run.py for the timed runs.

    python3 perfbench/worker.py <package root> <cpu>

The worker pins itself to CPU <cpu> and imports ``angular_optim.cli`` from
<package root>.  It then reads one JSON list of CLI arguments per line from
standard input, calls ``cli.main`` with it, and answers on standard output
with one JSON object per call: the exit code, the CPU and wall seconds of
the call, and the process's peak resident memory so far (VmHWM, in kB).
It ends when standard input closes.
"""

import contextlib
import json
import os
import re
import sys
import time
import traceback


def peak_kb() -> int:
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1))


def main() -> int:
    root, cpu = sys.argv[1], int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, root)
    from angular_optim import cli

    reply = sys.stdout
    for line in sys.stdin:
        argv = json.loads(line)
        wall, cpu_s = time.perf_counter(), time.process_time()
        try:
            # Replies own standard output; whatever the CLI prints goes to stderr.
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        cpu_s, wall = time.process_time() - cpu_s, time.perf_counter() - wall
        reply.write(json.dumps({"rc": rc, "cpu_s": cpu_s, "wall_s": wall,
                                "peak_kb": peak_kb()}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
