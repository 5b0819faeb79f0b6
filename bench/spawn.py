"""Run one command and report its wall time, exit code and peak RSS.

    python3 bench/spawn.py ARGV...

The command inherits this process's stdout; its stderr is captured. After
it exits, one JSON line goes to stderr: wall_s (spawn to reap), cpu_s
(ru_utime + ru_stime from wait4), code, maxrss_mb (ru_maxrss from wait4)
and the command's stderr text.

Linux charges a child with the peak RSS of the process it was spawned
from, so the benchmark, which holds its inputs and outputs in memory,
starts each command through this small process instead; it imports
nothing heavy, so ru_maxrss is the command's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stderr": err.decode(errors="replace"),
    }
    sys.stderr.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
