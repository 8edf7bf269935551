"""Launches the timed CLI commands, one at a time, and reports each one's
exit code, wall time and peak RSS.

Linux carries a parent's peak RSS into a forked child's ru_maxrss, so a
command started by the benchmark itself would report at least the
benchmark's own peak (which grows while it checks `inspect --json`
output). This launcher imports next to nothing and stays small, so the
ru_maxrss of its children is their own.

It runs each command on the one CPU the request names. Interference from
other tenants of a shared machine comes and goes per CPU, so the
benchmark moves from CPU to CPU round by round and a run sees each.

Protocol: one JSON request per line on stdin, {"argv", "env", "stdout",
"stderr", "cpu"} with file paths for the two output streams; one JSON
reply per line, {"rc", "wall", "maxrss_kib"}. It exits at end of input.
"""

import json
import os
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    os.sched_setaffinity(0, {req["cpu"]})  # the child inherits it
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    start = time.perf_counter()
    pid = os.posix_spawn(
        req["argv"][0],
        req["argv"],
        req["env"],
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ],
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    reply = {"rc": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kib": usage.ru_maxrss}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
