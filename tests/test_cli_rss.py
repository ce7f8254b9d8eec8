"""``tools/cli_rss.py`` run once, as a script, on a 3-vertex path."""

import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_rss.py"


def test_one_run_reports_exit_code_wall_time_and_max_rss(tmp_path):
    tree = tmp_path / "p3.txt"
    tree.write_text("3 2\n0 1\n1 2\n")
    # no PYTHONPATH and another working directory: the child finds the
    # package only through the path the script sets
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(_PATH), "--runs", "1", "--", "decide", "wr2-tree", str(tree)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    header, row, *rest = out.stdout.splitlines()
    assert rest == []
    assert header.split("\t") == ["run", "exit", "wall_ms", "max_rss_kb", "max_rss_mb"]
    run, code, wall_ms, rss_kb, rss_mb = row.split("\t")
    assert (run, code) == ("1", "0")
    assert float(wall_ms) > 0
    assert int(rss_kb) > 0 and rss_mb == f"{int(rss_kb) / 1024:.2f}"
