"""Exit code, wall time and max RSS of repeated ``semireg`` CLI runs.

    python tools/cli_rss.py --runs R -- <semireg argv>

Runs ``python -m semireg.cli <argv>`` R times, one child at a time, with
``PYTHONPATH`` set to the ``src`` of the checkout this script lives in,
and prints one tab-separated line per run: the run number, the exit code,
the wall time in ms and the child's max RSS in KB and in MB (KB / 1024, as
``perfbench/run.py`` reports ``peak_rss_mb``).  The child's stdout goes to
``/dev/null``; its stderr is kept.

Each RSS figure comes from ``os.wait4`` on that one child.  ``ru_maxrss``
survives ``exec``, so a child forked from a large process reads at least
that process's RSS; this script imports nothing of the package and spawns
every child itself.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_once(argv: list[str], env: dict[str, str]) -> tuple[int, float, int]:
    """(exit code, wall ms, max RSS in KB) of one CLI child."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "semireg.cli", *argv], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return os.waitstatus_to_exitcode(status), wall_ms, usage.ru_maxrss


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="number of CLI runs (default 1)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the semireg arguments")
    opts = parser.parse_args(args)
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    if opts.runs < 1 or not argv:
        parser.error("need --runs >= 1 and the semireg arguments after --")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("run\texit\twall_ms\tmax_rss_kb\tmax_rss_mb")
    for i in range(1, opts.runs + 1):
        code, wall_ms, rss_kb = run_once(argv, env)
        print(f"{i}\t{code}\t{wall_ms:.1f}\t{rss_kb}\t{rss_kb / 1024:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
