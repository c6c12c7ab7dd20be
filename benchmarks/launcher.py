"""Starts benchmark jobs on behalf of run.py and reports each one's usage.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout": path,
"stderr": path}``, runs it to completion and writes one JSON line back:
exit code, wall seconds from spawn to exit, and the user+sys CPU seconds
and max RSS of that child alone, from ``os.wait4`` on its pid.  Exits at
end of input.

A child's ru_maxrss includes the memory high-water mark of the process that
spawned it (``posix_spawn`` runs in the parent's address space until exec,
and ``fork`` copies the parent's resident pages), so jobs must not be
started from run.py, which holds inputs and whole outputs in memory.  This
process imports nothing beyond the standard library and stays near the
bare interpreter's size.
"""

import json
import os
import sys
import time


def main():
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
