#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of the ``.py`` files
under each DIR (default ``src/mhd2d``), with ``ast`` and ``tokenize``.

Each line falls in one class, the first that applies:
- docstring: a line of a module's, class's or function's leading string;
- code: a line that holds some token other than a comment, NL, NEWLINE,
  INDENT or DEDENT (a multi-line token covers each line it spans);
- comment: a line that holds only a comment;
- blank: every other line.

Usage: ``python scripts/src_size.py [DIR ...]``
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
CLASSES = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(path):
    """Counts of each class in CLASSES for the file at ``path``."""
    text = Path(path).read_text()
    doc = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    for n in range(1, len(text.splitlines()) + 1):
        if n in doc:
            counts["docstring"] += 1
        elif n in code:
            counts["code"] += 1
        elif n in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv):
    for d in argv or ["src/mhd2d"]:
        total = dict.fromkeys(CLASSES, 0)
        for path in sorted(Path(d).rglob("*.py")):
            for k, v in classify(path).items():
                total[k] += v
        print(f"{d}: {sum(total.values()):,} lines")
        for k in CLASSES:
            print(f"  {k:<10}{total[k]:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
