"""Start one fresh process; report its wall time, peak RSS and exit code.

    python3 benchmarks/launch.py LOG PROGRAM [ARG ...]

run.py starts every fresh process through this small one.  Linux charges a
process started from a large parent with that parent's peak RSS (the
pre-exec address space counts), so the peak must be read by a parent as small
as this one.  The child's stderr goes to LOG, its stdout is discarded, and
one JSON object {"wall_s", "peak_rss_mb", "exit_code"} is printed.
"""

import json
import os
import subprocess
import sys
import time


def main():
    log, *command = sys.argv[1:]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "exit_code": proc.returncode}))


if __name__ == "__main__":
    main()
