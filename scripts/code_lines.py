"""Lines of Python code under each tree, without comments, docstrings and blank lines.

    python scripts/code_lines.py [TREE ...]

TREE defaults to ``src`` and ``tests`` of the checkout this script sits in.
A line counts when a token other than a comment or a line break starts on it
or spans it (a multi-line string or expression counts every line it covers),
unless the line belongs to a docstring: the leading string of a module,
class or function body, found with ``ast``. Prints a Markdown table of each
tree's raw line count and code line count, then one of each file under the
trees (``src/dcelab/gate.py``), whose rows add up to their tree's; nothing
is asserted.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers covered by the docstrings of an ast.Module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(tree):
    """{path: (raw lines, code lines)} of the .py files under tree, by path."""
    rows = {}
    for path in sorted(tree.rglob("*.py")):
        source = path.read_text()
        rows[path] = len(source.splitlines()), code_lines(source)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                    default=[ROOT / "src", ROOT / "tests"])
    counts = {tree: count(tree) for tree in ap.parse_args(argv).trees}
    print("| tree | lines | code lines |")
    print("| --- | --- | --- |")
    for tree, rows in counts.items():
        print(f"| {tree.name}/ | {sum(r for r, _ in rows.values())} | "
              f"{sum(c for _, c in rows.values())} |")
    print()
    print("| file | lines | code lines |")
    print("| --- | --- | --- |")
    for tree, rows in counts.items():
        for path, (raw, code) in rows.items():
            print(f"| {path.relative_to(tree.parent).as_posix()} | {raw} | {code} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
