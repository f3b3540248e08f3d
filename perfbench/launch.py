"""Run one command; record its wall time and its own peak RSS.

Usage: python3 launch.py RECORD_PATH PROGRAM [ARGS...]

On Linux the peak RSS that wait4 reports for a child is at least the
high-water mark of the address space it was forked from: exec carries
that mark over. run.py holds numpy and parsed multi-MB reports, so its
children would all report run.py's own peak. This small interpreter
forks and execs the command instead, waits for it, writes
"<wall s> <peak RSS KiB>" to RECORD_PATH, wall time from fork to exit,
and exits with the command's exit code. The command inherits stdin,
stdout and stderr.
"""

import os
import sys
import time


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(record, "w") as out:
        out.write(f"{wall!r} {usage.ru_maxrss}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
