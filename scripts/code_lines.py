"""Lines of Python code under each tree, without comments, docstrings and blank lines.

    python scripts/code_lines.py [TREE ...]

TREE defaults to ``src`` and ``tests`` of the checkout this script sits in.
A line counts when a token other than a comment or a line break starts on it
or spans it (a multi-line string or expression counts every line it covers),
unless the line belongs to a docstring: the leading string of a module,
class or function body, found with ``ast``. Prints a Markdown table of each
tree's raw line count and code line count; nothing is asserted.
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
    """(raw lines, code lines) summed over the .py files under tree."""
    raw = code = 0
    for path in sorted(tree.rglob("*.py")):
        source = path.read_text()
        raw += len(source.splitlines())
        code += code_lines(source)
    return raw, code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                    default=[ROOT / "src", ROOT / "tests"])
    trees = ap.parse_args(argv).trees
    print("| tree | lines | code lines |")
    print("| --- | --- | --- |")
    for tree in trees:
        raw, code = count(tree)
        print(f"| {tree.name}/ | {raw} | {code} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
