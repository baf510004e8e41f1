"""Line counts of the haarforge sources, split by what each line holds.

Usage: python scripts/src_lines.py [PACKAGE_DIR]

For each module of PACKAGE_DIR (default: src/haarforge next to this script)
and in total, prints the ``wc -l`` count and its split into code, docstring,
comment and blank lines.  A docstring line is any line of the span that
``ast`` gives a module, class or function docstring, blank lines inside it
included; a comment line is any other line whose text starts with ``#``;
a blank line is any other line of whitespace alone; the rest is code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """The 1-based line numbers spanned by the docstrings in ``tree``."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.update(range(first.lineno, first.end_lineno + 1))
    return spans


def split(source: str) -> dict:
    """The counts of COLUMNS for one module's text."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = source.count("\n")  # as wc -l counts them
    for number, text in enumerate(lines, start=1):
        kind = ("docstring" if number in docs else "blank" if not text.strip()
                else "comment" if text.lstrip().startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/haarforge"
    rows = {path.name: split(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}
    rows["total"] = {col: sum(row[col] for row in rows.values()) for col in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{col:>11}" for col in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[col]:>11,}" for col in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
