"""JSON report assembly for the command-line tools.

One schema covers validation, duality, and enumeration runs; fields not
computed by a given command are null. Coordinates are serialized exactly:
integers as JSON numbers, non-integers as "p/q" strings. Floating point
never appears. The ``timings`` field is wall-clock only and is excluded
from golden comparisons.
"""

from __future__ import annotations

from fractions import Fraction

from .duality import DualityResult
from .nefpart import NefPartition
from .polytope import Point, Polytope

SCHEMA = "nefdual-report/1"


def coord(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def point_json(p: Point) -> list:
    return [coord(c) for c in p.coords]


def polytope_json(p: Polytope) -> dict:
    return {
        "dimension": p.ambient_dim,
        "vertices": [point_json(v) for v in p.vertices],
    }


def _witness_json(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return coord(obj)
    if isinstance(obj, Point):
        return point_json(obj)
    if isinstance(obj, dict):
        return {str(k): _witness_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj) if not isinstance(obj, (set, frozenset)) else sorted(obj, key=str)
        return [_witness_json(v) for v in items]
    return str(obj)


def checks_json(result: DualityResult) -> dict:
    return {
        name: {
            "passed": check.passed,
            "witness": _witness_json(check.witness),
            "detail": check.detail,
        }
        for name, check in result.checks.items()
    }


def base_report(
    command: str, source_file: str | None, polytope: Polytope, file_points, file_to_canonical
) -> dict:
    """The keys every report opens with: the ``input`` block (file,
    dimension, points) and the ``canonical`` block (vertices,
    file_to_canonical), to which each report appends its own keys."""
    return {
        "schema": SCHEMA,
        "command": command,
        "input": {
            "file": source_file,
            "dimension": polytope.ambient_dim,
            "points": [point_json(p) for p in file_points],
        },
        "canonical": {
            "vertices": [point_json(v) for v in polytope.vertices],
            "file_to_canonical": list(file_to_canonical),
        },
    }


def partition_report(
    command: str,
    source_file: str | None,
    polytope: Polytope,
    file_points,
    file_parts,
    file_to_canonical,
    outcome,
    duality: DualityResult | None = None,
) -> dict:
    """Report for nef-validate / nef-dual runs.

    ``outcome`` is the NefPartition or the Rejection returned by validation;
    a base that is not reflexive is a ``NotReflexive`` Rejection.
    """
    rep = base_report(command, source_file, polytope, file_points, file_to_canonical)
    rep["input"]["parts"] = [list(part) for part in file_parts]
    rep["canonical"]["parts"] = [
        sorted(file_to_canonical[i] for i in part) for part in file_parts
    ]
    valid = isinstance(outcome, NefPartition)
    rep["valid"] = valid
    rep["rejection"] = None if valid else outcome._asdict()
    rep["nabla"] = None
    rep["nabla_parts"] = None
    rep["dual_parts"] = None
    rep["checks"] = None
    if valid:
        rep["nabla_parts"] = [polytope_json(p) for p in outcome.nabla_parts]
        if duality is not None:
            rep["nabla"] = polytope_json(duality.nabla)
            rep["dual_parts"] = [
                {
                    "indices": sorted(part),
                    "vertices": [
                        point_json(duality.dual.delta.vertices[i])
                        for i in sorted(part)
                    ],
                }
                for part in duality.dual.parts
            ]
            rep["checks"] = checks_json(duality)
    return rep


def enumeration_report(
    command: str,
    source_file: str | None,
    polytope: Polytope,
    file_points,
    file_to_canonical,
    r: int,
    partitions_file_order: list[list[list[int]]] | None,
    rejection=None,
) -> dict:
    """Report for nef-enumerate runs.

    When the input itself is rejected (``rejection`` given, a
    :class:`nefdual.nefpart.Rejection`, and ``partitions_file_order``
    None), the report says so under ``valid`` and ``rejection`` and
    ``count`` and ``partitions`` are null; a successful enumeration carries
    neither of those two keys.
    """
    rep = base_report(command, source_file, polytope, file_points, file_to_canonical)
    rep["input"]["r"] = r
    if rejection is not None:
        rep["valid"] = False
        rep["rejection"] = rejection._asdict()
    rep["count"] = None if partitions_file_order is None else len(partitions_file_order)
    rep["partitions"] = partitions_file_order
    return rep
