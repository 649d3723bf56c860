"""JSON report assembly for the command-line tools.

One schema covers validation, duality, and enumeration runs; fields not
computed by a given command are null. Coordinates are serialized exactly:
integers as JSON numbers, non-integers as "p/q" strings. Floating point
never appears. The ``timings`` field is wall-clock only and is excluded
from golden comparisons.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite

from .duality import DualityResult
from .fileio import point_terms
from .nefpart import NefPartition
from .polytope import Point, Polytope

SCHEMA = "nefdual-report/1"


def coord(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def polytope_json(p: Polytope) -> dict:
    return {
        "dimension": p.ambient_dim,
        "vertices": [point_terms(v) for v in p.vertices],
    }


def _witness_json(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return coord(obj)
    if isinstance(obj, Point):
        return point_terms(obj)
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
            "points": [point_terms(p) for p in file_points],
        },
        "canonical": {
            "vertices": [point_terms(v) for v in polytope.vertices],
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
                        point_terms(duality.dual.delta.vertices[i])
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


def json_text(obj) -> str:
    """``obj`` written exactly as ``json.dumps(obj, indent=2)`` writes it:
    two spaces per level, non-ASCII characters as ``\\u`` escapes, keys in
    the dict's own order.

    With an indent, ``json.dumps`` runs its pure-Python encoder. Here dicts
    with ``str`` keys, lists and tuples are walked; strings are written by
    the C escaper, ``int``s by ``int.__repr__``, finite ``float``s (the
    ``timings`` value) by ``float.__repr__``, and None, True and False as
    the encoder spells them. A list of ``int``s is joined in one step. Any
    other value (NaN or an infinity, a dict with a key that is not a
    ``str``) is handed to ``json.dumps`` itself, its lines moved to the
    depth it sits at. Reports hold no cycles, so none is looked for.
    """
    return _json_at(obj, "\n")


def _json_at(obj, newline: str) -> str:
    """``obj`` as :func:`json_text` writes it, at the depth whose lines
    start with ``newline``."""
    kind = type(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        if {*map(type, obj)} == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_at(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and {*map(type, obj)} <= {str}:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _json_at(v, inner) for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is float and isfinite(obj):
        return float.__repr__(obj)
    return json.dumps(obj, indent=2).replace("\n", newline)
