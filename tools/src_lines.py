"""Line counts of the ``src/semireg`` modules, total and code only.

Code-only lines leave out blank lines, comment lines and docstrings (a
string constant that is the first statement of a module, class or
function).  Run from anywhere:

    python tools/src_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "semireg"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    lines = source.splitlines()
    skip = _docstring_lines(ast.parse(source))
    code = sum(
        1
        for i, line in enumerate(lines, 1)
        if i not in skip and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else DEFAULT_DIR
    total = code = 0
    print("module\tlines\tcode")
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
        print(f"{path.relative_to(root)}\t{t}\t{c}")
    print(f"total\t{total}\t{code}")


if __name__ == "__main__":
    main(sys.argv[1:])
