"""Runs measured commands for run.py and reports their host cost.

Reads one JSON request per line on stdin: {"argv", "cwd", "out", "limit_s"}.
For each, forks, runs argv in its own process group with stdout to `out`,
waits with wait4, and writes one JSON line: {"code", "wall_s", "cpu_s",
"rss_kib"}. The group is killed after `limit_s` seconds.

It is a process of its own so that it stays small. A child's ru_maxrss
starts from the RSS of the process that forked it, so run.py, which holds
reference outputs of several MB, must not fork the measured sweeps itself.
Start it with `python3 -I -S` to keep it at about 9.5 MB.
"""

import json
import os
import signal
import sys
import time


def main():
    child = 0

    def on_alarm(_signum, _frame):
        if child:
            os.killpg(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        start = time.perf_counter()
        child = os.fork()
        if child == 0:
            try:
                os.setpgrp()
                os.chdir(req["cwd"])
                fd = os.open(req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(fd, 1)
                os.execv(req["argv"][0], req["argv"])
            finally:
                os._exit(127)
        signal.alarm(int(req["limit_s"]))
        _, status, usage = os.wait4(child, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        child = 0
        reply = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                 "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
