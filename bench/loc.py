"""Count the code lines of Python source: no docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break starts,
ends or continues on it, and it is not a line of a docstring (the string
that opens a module, class or function body, found with ``ast``). Run::

    python3 bench/loc.py                 # every module of src/nefdual, and the total
    python3 bench/loc.py FILE_OR_DIR ... # the given files, or the .py files under each directory
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    return len(code_line_numbers(source))


def code_line_numbers(source: str) -> set[int]:
    """The numbers (from 1) of the code lines of ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def _files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in sorted(os.walk(path)):
                yield from (os.path.join(root, n) for n in sorted(names) if n.endswith(".py"))
        else:
            yield path


def main(argv=None) -> int:
    default = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nefdual")
    total = 0
    for path in _files(argv or [default]):
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
