"""Process launcher for the CLI workloads.

Reads one JSON request per line on stdin -- ``{"argv": [...], "stdout":
path, "stderr": path, "timeout_s": seconds}`` -- runs it to completion and
answers with one JSON line ``{"code", "wall_s", "maxrss_kb"}``.

It exists for the memory figure: a child's peak RSS as the kernel reports
it includes the RSS its parent had when it forked, so children are forked
from this small process instead of from the benchmark's main process, whose
corpus makes it large.  Wall time is taken here, around fork to reap.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

_pid = None


def _on_alarm(signum, frame):
    if _pid is not None:
        try:
            os.kill(_pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main() -> None:
    global _pid
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _pid = child.pid
            signal.alarm(max(1, int(req["timeout_s"])))
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            _pid = None
            signal.alarm(0)
        child.returncode = os.waitstatus_to_exitcode(status)
        print(
            json.dumps({
                "code": child.returncode,
                "wall_s": wall,
                "maxrss_kb": usage.ru_maxrss,
            }),
            flush=True,
        )


if __name__ == "__main__":
    main()
