"""Run one job and record its wall time, exit code and peak RSS.

    python3 launch.py RESULT TIMEOUT STDOUT STDERR CMD...

The benchmark starts every job through this small process.  On Linux a
child's max-RSS starts from the memory high-water mark of the process that
spawned it, so a job spawned straight from the benchmark, which holds inputs
and oracle data, would report the benchmark's memory instead of its own.
This launcher holds about 13 MB, less than any `domcount` process.

RESULT receives one JSON object: "rc", the job's exit code, or null when it
was killed at TIMEOUT seconds; "wall", seconds from spawn to exit; and
"maxrss_kb", the job's max RSS from its own `wait4` rusage.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    result, timeout, out, err, *cmd = sys.argv[1:]
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(float(timeout), kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
    rc = None if state["killed"] else os.waitstatus_to_exitcode(status)
    with open(result, "w") as handle:
        json.dump({"rc": rc, "wall": wall, "maxrss_kb": usage.ru_maxrss}, handle)


if __name__ == "__main__":
    main()
