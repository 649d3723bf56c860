"""Reach scan: the functions of ``src/nefdual`` that a benchmark pass never calls.

Runs one pass of each perfbench workload (its set-up and its operations, at
seed 1) under ``sys.setprofile``, and prints every function, method and
property defined in ``src/nefdual`` that no call reached, each with its code
lines as ``bench/loc.py`` counts them, then the totals. Run from anywhere::

    python3 bench/reach.py           # one full pass of each workload
    python3 bench/reach.py --short   # the workloads' short plans

Code the benchmark never reaches is either tested only by the test suite or
not needed at all; the list is where to look for code that buys nothing.
Nested functions count on their own, and their lines count for the function
around them too.

The cli workload writes its request files into a temporary directory, which
is removed afterwards; nothing is written under ``perfbench/``. A failed
operation is printed and the exit status is 1, since a scan of failing code
shows little. Standard library only, with the workloads imported from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "nefdual")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, HERE)

import loc  # noqa: E402
import workloads  # noqa: E402

SEED = 1


class _NoClock:
    """The recorder's machine-speed reference, never sampled: nothing is timed."""

    def sample(self, raw):
        pass


def definitions() -> dict:
    """``{(path, first line): (qualified name, code lines)}`` for every
    ``def`` in the package. The first line is the first decorator's, if
    any, as in the code object's ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix, lines):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.", lines)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = range(first, child.end_lineno + 1)
                found[(path, first)] = (prefix + child.name, len(lines.intersection(span)))
                walk(child, path, f"{prefix}{child.name}.<locals>.", lines)
            else:
                walk(child, path, prefix, lines)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            walk(ast.parse(source), path, name[:-3] + ".", loc.code_line_numbers(source))
    return found


def called(short: bool) -> tuple[set, dict]:
    """``(codes, failed)``: the code objects called during one pass of each
    workload, and the failed operations, ``{key: message}``."""
    codes = set()
    failed = {}

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for cls in workloads.WORKLOADS.values():
                workload = cls(SEED, short=short)
                rec = workloads.Recorder(_NoClock())
                sys.setprofile(profile)
                try:
                    workload.run(workload.setup(), rec, workloads.order_rng(SEED))
                finally:
                    sys.setprofile(None)
                failed.update({f"{cls.name}: {k}": m for k, m in rec.failed.items()})
        finally:
            os.chdir(cwd)
    return codes, failed


def unreached(short: bool = False) -> tuple[list, dict]:
    """``(rows, failed)``: a ``(qualified name, code lines)`` row for every
    definition no call reached, in file and line order, and the failed
    operations."""
    codes, failed = called(short)
    reached = {(c.co_filename, c.co_firstlineno) for c in codes if not c.co_name.startswith("<")}
    defs = definitions()
    return [defs[key] for key in sorted(defs) if key not in reached], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--short", action="store_true", help="run the workloads' short plans")
    args = parser.parse_args(argv)
    rows, failed = unreached(args.short)
    for key, message in failed.items():
        print(f"FAIL: {key}: {message}", file=sys.stderr)
    for name, lines in rows:
        print(f"{lines:6d}  {name}")
    print(f"{sum(lines for _, lines in rows):6d}  code lines in {len(rows)} functions never called")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
