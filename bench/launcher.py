"""Start benchmark children from a process with a small memory footprint.

On Linux a child's max RSS, as rusage reports it, is at least the RSS of the
process it was forked from.  The benchmark process holds a whole world in
memory, so it starts every timed child through this small process instead:

    python3 bench/launcher.py LOG_FILE

It reads one JSON argv list per line on stdin, runs that child to completion
with its output appended to LOG_FILE, and answers one JSON line
``[wall seconds, max RSS in MB, exit code]``.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    # SIGTERM becomes SystemExit, so the running child is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(sys.argv[1], "ab") as log:
        for line in sys.stdin:
            argv = json.loads(line)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(json.dumps([wall, usage.ru_maxrss / 1024, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
