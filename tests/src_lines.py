"""Print the code lines of each module of ``src/blendcop`` and their total.

A code line is a line that is not blank, not a comment alone and not part
of a docstring: the first statement of a module, class or function when
it is a string, found through ``ast``. Run from the repository root:

    python3 tests/src_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/blendcop``. pytest does not collect this file,
and it imports nothing from the package, so it counts any checkout.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in a module's source."""
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else "src/blendcop")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
