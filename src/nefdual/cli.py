"""Command-line interface.

Subcommands: polar, check-reflexive, nef-validate, nef-dual, nef-enumerate,
minkowski. Exit codes follow one contract everywhere: 0 success or positive
verdict, 1 well-formed input with a negative verdict, 2 malformed input.
Each command returns its exit code and its reply: the text, or with
``--json`` the report dict, which :func:`main` alone stamps with
``timings`` and writes as JSON. Output is deterministic; the only timing
information lives in that ``timings`` field. No environment variable is
consulted.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .duality import run_full_duality
from .errors import DimensionMismatch, GeometryError, NotReflexive
from .fileio import (
    PolytopeParseError,
    file_to_canonical_map,
    format_rational,
    parse_partition_spec,
    parse_polytope_file,
    point_text,
    write_polytope_text,
)
from .nefpart import NefPartition, Rejection, enumerate_nef_partitions, validate_partition
from .polytope import Polytope, minkowski_sum
from .report import enumeration_report, json_text, partition_report


def _reflexive_verdict(p: Polytope) -> str:
    if not p.is_full_dimensional:
        return "not reflexive: not full-dimensional"
    for v in p.vertices:
        if not v.is_lattice():
            return f"not reflexive: non-lattice vertex ({point_text(v, ', ')})"
    if not p.has_zero_interior:
        return "not reflexive: origin not strictly interior"
    for f in p.facets:
        if f.offset != 1:
            return (
                f"not reflexive: facet with normal ({point_text(f.normal, ', ')}) "
                f"at lattice distance {format_rational(f.offset)}"
            )
    return "reflexive"


def _load_for_partition(path: str):
    poly, file_points = parse_polytope_file(path)
    mapping = file_to_canonical_map(poly, file_points)
    return poly, file_points, mapping


def cmd_polar(args) -> tuple[int, str]:
    poly, _ = parse_polytope_file(args.file)
    return 0, write_polytope_text(poly.polar_dual())


def cmd_check_reflexive(args) -> tuple[int, str]:
    poly, _ = parse_polytope_file(args.file)
    verdict = _reflexive_verdict(poly)
    return (0 if verdict == "reflexive" else 1), verdict + "\n"


def cmd_minkowski(args) -> tuple[int, str]:
    a, _ = parse_polytope_file(args.file_a)
    b, _ = parse_polytope_file(args.file_b)
    try:
        total = minkowski_sum(a, b)
    except DimensionMismatch as exc:
        raise PolytopeParseError(str(exc)) from exc
    return 0, write_polytope_text(total)


def _validated(args, command: str):
    """Load, parse the partition spec, map it to canonical indices and
    validate: ``(head, outcome)``, with ``head`` the leading arguments of
    :func:`partition_report` and ``outcome`` the :class:`NefPartition` or
    the :class:`Rejection`. A base that is not reflexive is a
    ``NotReflexive`` rejection like any other."""
    poly, file_points, mapping = _load_for_partition(args.file)
    file_parts = parse_partition_spec(args.parts, len(file_points))
    head = (command, args.file, poly, file_points, file_parts, mapping)
    canonical_parts = [[mapping[i] for i in part] for part in file_parts]
    try:
        return head, validate_partition(poly, canonical_parts)
    except NotReflexive as exc:
        return head, Rejection("NotReflexive", detail=str(exc))


def cmd_nef_validate(args) -> tuple[int, str | dict]:
    head, outcome = _validated(args, "nef-validate")
    valid = isinstance(outcome, NefPartition)
    if args.json:
        return (0 if valid else 1), partition_report(*head, outcome)
    if valid:
        return 0, "valid\n"
    return 1, f"invalid: {outcome}\n"


def cmd_nef_dual(args) -> tuple[int, str | dict]:
    head, outcome = _validated(args, "nef-dual")
    valid = isinstance(outcome, NefPartition)
    duality = run_full_duality(outcome) if valid else None
    code = 0 if valid and duality.all_passed else 1
    if args.json:
        return code, partition_report(*head, outcome, duality)
    if not valid:
        return 1, f"invalid: {outcome}\n"
    lines = [f"valid nef-partition with {outcome.r} parts"]
    lines.append("nabla vertices:")
    lines += ["  " + point_text(v) for v in duality.nabla.vertices]
    vertices = duality.dual.delta.vertices
    for i, part in enumerate(duality.dual.parts):
        coords = " ".join(f"({point_text(vertices[j], ', ')})" for j in sorted(part))
        lines.append(f"dual part {i}: {coords}")
    lines.append("checks:")
    for name, check in duality.checks.items():
        lines.append(f"  {name}: {'pass' if check.passed else 'FAIL'}")
    lines.append(f"overall: {'pass' if duality.all_passed else 'FAIL'}")
    return code, "\n".join(lines) + "\n"


def cmd_nef_enumerate(args) -> tuple[int, str | dict]:
    if args.r < 1:
        raise PolytopeParseError(f"-r must be a positive number of parts, got {args.r}")
    poly, file_points, mapping = _load_for_partition(args.file)
    head = ("nef-enumerate", args.file, poly, file_points, mapping, args.r)
    try:
        found = enumerate_nef_partitions(poly, args.r)
    except NotReflexive as exc:
        rejection = Rejection("NotReflexive", detail=str(exc))
        if args.json:
            return 1, enumeration_report(*head, None, rejection=rejection)
        return 1, f"invalid: {rejection}\n"
    canon_to_file = {c: f for f, c in enumerate(mapping)}
    displayed = []
    for np in found:
        parts = sorted(
            sorted(canon_to_file[i] for i in part) for part in np.parts
        )
        displayed.append(parts)
    displayed.sort()
    if args.json:
        return 0, enumeration_report(*head, displayed)
    lines = [";".join(",".join(str(i) for i in part) for part in parts) for parts in displayed]
    return 0, ("\n".join(lines) + "\n") if lines else ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nefdual",
        description="Exact computations with reflexive polytopes and nef-partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polar", help="polar dual of a polytope file")
    p.add_argument("file")
    p.add_argument("--output", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("check-reflexive", help="reflexivity verdict for a polytope file")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_check_reflexive)

    p = sub.add_parser("nef-validate", help="validate a vertex partition")
    p.add_argument("file")
    p.add_argument("--parts", required=True, help="partition spec like '0,2;1,3'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_nef_validate)

    p = sub.add_parser("nef-dual", help="dual nef-partition plus the full check suite")
    p.add_argument("file")
    p.add_argument("--parts", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_nef_dual)

    p = sub.add_parser("nef-enumerate", help="enumerate all nef-partitions with r parts")
    p.add_argument("file")
    p.add_argument("-r", type=int, required=True, help="number of parts")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_nef_enumerate)

    p = sub.add_parser("minkowski", help="Minkowski sum of two polytope files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--output")
    p.set_defaults(func=cmd_minkowski)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first request and reused by later ones.

    Parsing leaves it unchanged: every call gets a fresh namespace, and no
    default is a mutable object.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        code, output = args.func(args)
    except (PolytopeParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if isinstance(output, dict):
        output["timings"] = {"seconds": time.perf_counter() - started}
        output = json_text(output) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return code


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
