"""Runs the benchmark's child processes and measures each one.

Reads one JSON request per line on stdin, {"argv", "stdout", "stderr",
"timeout"}, runs the command with its output sent to the two files, waits for
it with wait4 on its pid, and answers one JSON line on stdout:
{"code", "wall_s", "cpu_s", "rss_mb"}. It exits when stdin closes.

This is its own small process because Linux carries the spawning process's
peak RSS into the child's ru_maxrss: exec records the high-water mark of the
address space it replaces, which under vfork is the parent's. Spawned from
run.py, every child would report at least run.py's peak (its generated
inputs and reference data), not its own.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]
    argv = req["argv"]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], req["timeout"])[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
