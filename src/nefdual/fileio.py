"""Plain-text polytope files and partition specs.

A polytope file has a header line ``d n`` (dimension, point count), two
integers in ASCII digits with an optional ``-`` in front, followed by n
lines of d whitespace-separated coordinates, each an integer or an exact
rational ``p/q``: ASCII digits with an optional sign in front, and no
decimal point, exponent or ``_``. Lines starting with ``#`` and blank lines
are ignored. The order of the points in the file is kept as the
user-facing index order; the parsed polytope itself is canonical.

A partition spec is ``i1,i2,...;j1,j2,...`` with zero-based indices into
the file order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .polytope import Point, Polytope, SPACE_M, _check_space, hull


class PolytopeParseError(ValueError):
    """Malformed input: a polytope file, a partition spec or a part count."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INDEX = re.compile(r"-?[0-9]+")


def _parse_rational(token: str) -> tuple[int, int]:
    """``(p, q)`` with q > 0 for an integer or ``p/q`` in ASCII digits;
    nothing else (no ``1e2``, ``0.5`` or ``1_0``), so a short token cannot
    stand for a huge number."""
    match = _RATIONAL.fullmatch(token)
    if match is not None:
        try:
            # int() also refuses more digits than sys.get_int_max_str_digits()
            p, q = int(match[1]), int(match[2] or 1)
        except ValueError:
            q = 0
        if q:
            return p, q
    raise PolytopeParseError(f"bad coordinate {token!r}")


def parse_polytope_text(text: str, space: str = SPACE_M):
    """Parse a polytope file.

    Returns ``(polytope, file_points)`` where ``file_points`` preserves the
    order the points appear in the file.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise PolytopeParseError("empty polytope file")
    header = lines[0].split()
    if len(header) != 2 or not all(_INDEX.fullmatch(tok) for tok in header):
        raise PolytopeParseError(f"header must be 'd n', got {lines[0]!r}")
    try:
        # int() also refuses more digits than sys.get_int_max_str_digits()
        dim, count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise PolytopeParseError(f"header must be 'd n', got {lines[0]!r}") from exc
    if dim < 1:
        raise PolytopeParseError(f"dimension must be positive, got {dim}")
    if count < 1:
        raise PolytopeParseError(f"point count must be positive, got {count}")
    body = lines[1:]
    if len(body) != count:
        raise PolytopeParseError(
            f"expected {count} coordinate lines, found {len(body)}"
        )
    _check_space(space)
    points = []
    for line in body:
        tokens = line.split()
        if len(tokens) != dim:
            raise PolytopeParseError(
                f"expected {dim} coordinates per line, got {line!r}"
            )
        # The point's integer form: numerators over the lcm of the denominators.
        rationals = [_parse_rational(t) for t in tokens]
        den = lcm(*[q for _, q in rationals])
        points.append(Point._from_form(tuple([p * (den // q) for p, q in rationals]), den, space))
    return hull(points), points


def parse_polytope_file(path, space: str = SPACE_M):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PolytopeParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_polytope_text(text, space)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_terms(p: Point) -> list:
    """The coordinates of ``p`` as :func:`format_rational` and
    :func:`nefdual.report.coord` write them: an ``int``, or ``"p/q"`` in
    lowest terms. They are read off the point's integer form, each
    numerator reduced by its gcd with the common denominator, so no
    ``Fraction`` is made."""
    den = p._den
    if den == 1:
        return list(p._num)
    terms = []
    for x in p._num:
        g = gcd(x, den)
        terms.append(x // den if g == den else f"{x // g}/{den // g}")
    return terms


def point_text(p: Point, sep: str = " ") -> str:
    """The coordinates of ``p`` as :func:`format_rational` writes them,
    joined by ``sep`` (:func:`point_terms`)."""
    return sep.join(map(str, point_terms(p)))


def write_polytope_text(p: Polytope) -> str:
    """Serialize in canonical vertex order; parsing the result round-trips."""
    lines = [f"{p.ambient_dim} {len(p.vertices)}"]
    lines += [point_text(v) for v in p.vertices]
    return "\n".join(lines) + "\n"


def parse_partition_spec(text: str, n_points: int) -> list[list[int]]:
    """Parse ``i1,i2,...;j1,j2,...`` into index lists over the file order.

    Rejects syntax errors, out-of-range indices, and indices repeated
    within or across parts.
    """
    spec = text.strip()
    if not spec:
        raise PolytopeParseError("empty partition spec")
    parts = []
    seen: set[int] = set()
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise PolytopeParseError("empty part in partition spec")
        indices = []
        for tok in chunk.split(","):
            tok = tok.strip()
            try:
                # int() also refuses more digits than sys.get_int_max_str_digits()
                idx = int(tok) if _INDEX.fullmatch(tok) else None
            except ValueError:
                idx = None
            if idx is None:
                raise PolytopeParseError(f"bad index {tok!r} in partition spec")
            if idx < 0 or idx >= n_points:
                raise PolytopeParseError(
                    f"index {idx} out of range 0..{n_points - 1}"
                )
            if idx in seen:
                raise PolytopeParseError(f"index {idx} repeated in partition spec")
            seen.add(idx)
            indices.append(idx)
        parts.append(indices)
    return parts


def file_to_canonical_map(polytope: Polytope, file_points: list[Point]) -> list[int]:
    """Map file order to canonical vertex indices.

    Every file point must be a distinct vertex of the polytope, otherwise
    partition indices would be ambiguous.
    """
    index = {v: i for i, v in enumerate(polytope.vertices)}
    seen: set[int] = set()
    mapping = []
    for k, p in enumerate(file_points):
        idx = index.get(p)
        if idx is None:
            raise PolytopeParseError(
                f"file point #{k} {tuple(str(c) for c in p.coords)} is not a vertex"
            )
        if idx in seen:
            raise PolytopeParseError(f"file point #{k} repeats an earlier vertex")
        seen.add(idx)
        mapping.append(idx)
    return mapping
