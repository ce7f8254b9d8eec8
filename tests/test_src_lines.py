"""``tools/src_lines.py`` run as a script: one row per module, then the
column sums."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_lists_every_module_once_and_sums_them():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    head, *rows, total = [line.split("\t") for line in out.splitlines()]
    assert head == ["module", "lines", "code"]
    assert [r[0] for r in rows] == sorted(p.name for p in (ROOT / "src" / "semireg").glob("*.py"))
    counts = [(int(r[1]), int(r[2])) for r in rows]
    assert all(0 < code <= lines for lines, code in counts)
    assert total == ["total", str(sum(c[0] for c in counts)), str(sum(c[1] for c in counts))]
