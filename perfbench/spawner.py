"""Start the benchmark's child processes and time them.

The benchmark sends one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``, and
reads back one line per request, ``{"wall_s": ..., "rss_kib": ..., "exit": ...}``.

Children are started from this small process, not from the benchmark itself:
on Linux a child's peak resident set (``ru_maxrss``) also counts the memory
of the process it was started from, and this process stays smaller than any
``dualgraphs`` run, while the benchmark grows as it holds reports and facts.
"""

import json
import os
import signal
import sys
import threading
import time


def run(request) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        killer = threading.Timer(request["timeout"], os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return {"wall_s": wall, "rss_kib": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
