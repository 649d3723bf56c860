"""Exact linear algebra over rational numbers, computed on integers.

Every public function takes rows of exact rationals (``int`` or
``fractions.Fraction``; a ``float`` is a ``TypeError``) and returns
``Fraction`` entries. Internally each row is scaled by the LCM of its
denominators (``rref`` scales the whole matrix by one), which changes
neither the row space nor the solution set, and
the resulting ``int`` matrix is reduced by one fraction-free Gauss–Jordan
elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination"). Every intermediate entry is a
minor of the scaled input, so each division in it is exact, and a
``Fraction`` is built only for a returned entry. No floating point, no
tolerances: every comparison is exact.

``integer_rows``, ``eliminate`` and ``integer_nullspace`` are the integer
layer itself, for callers that already hold integer coordinates;
``exact_rational`` is the guard against floats and unreadable strings
that ``integer_rows``, ``Point`` and the face fan's value readers share.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class SolveFailure(Enum):
    """Why a linear system lacks a unique solution."""

    INCONSISTENT = "Inconsistent"
    UNDERDETERMINED = "Underdetermined"


Inconsistent = SolveFailure.INCONSISTENT
Underdetermined = SolveFailure.UNDERDETERMINED


def integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the LCM of its entries' denominators, as ``int`` lists.

    Entries must be exact rationals. A ``float`` raises ``TypeError``: it
    would stand for a binary fraction nobody wrote.
    """
    out = []
    for row in rows:
        row = _exact_row(row)
        scale = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _exact_row(row) -> list:
    return [x if type(x) is int or type(x) is Fraction else exact_rational(x) for x in row]


def exact_rational(x) -> Fraction:
    """``Fraction(x)``, except that a ``float`` raises ``TypeError`` and a
    string that ``Fraction`` cannot read (such as "x" or "1/0") raises one
    ``ValueError`` naming it. A numeric string is parsed, and any other
    value that is not a number raises ``TypeError``, as ``Fraction`` does."""
    if isinstance(x, float):
        raise TypeError(f"exact rational expected, got float {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"exact rational expected, got {x!r}") from None


def eliminate(mat: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss–Jordan elimination of an integer matrix, in place.

    ``mat`` is a list of rows; its rows are swapped and replaced by new
    lists, never modified themselves, so they may be shared or be tuples.
    Pivots are taken column by column among the first ``ncols`` columns,
    each from the first remaining row that is nonzero there. Returns
    ``(pivots, den)``: afterwards row ``r < len(pivots)`` holds ``den`` in
    column ``pivots[r]`` and zero in every other pivot column, the rows below
    are zero in the first ``ncols`` columns, and ``mat / den`` is the reduced
    row echelon form. Each update ``(piv*a - f*b) // prev`` divides exactly,
    because every entry is a minor of the input matrix.

    Outside this module, :func:`nefdual.polytope.hull` is the library's
    only caller. The face fan's cone tables make the same update one
    exchange at a time, each from the table before
    (:meth:`nefdual.fan._ConeKernel.exchange`), and call no elimination.
    """
    m = len(mat)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, m) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i in range(m):
            if i == r:
                continue
            row = mat[i]
            f = row[c]
            if f:
                mat[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
            elif piv != prev:
                mat[i] = [piv * a // prev for a in row]
        pivots.append(c)
        prev = piv
        r += 1
        if r == m:
            break
    return pivots, prev


def integer_nullspace(mat: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of ``{x : mat @ x = 0}``; reduces ``mat`` in place.

    One vector per free column of the reduced form, ordered by free column
    index, with a positive entry in its free column.
    """
    pivots, den = eliminate(mat, ncols)
    sign = 1 if den > 0 else -1
    pivot_set = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_set:
            continue
        vec = [0] * ncols
        vec[fcol] = sign * den
        for r, pcol in enumerate(pivots):
            vec[pcol] = -sign * mat[r][fcol]
        g = gcd(*vec)
        basis.append(tuple(v // g for v in vec))
    return basis


def rref(rows: Sequence[Sequence[Fraction]], ncols: int | None = None):
    """Reduced row echelon form of a copy of ``rows``.

    Returns ``(matrix, pivot_columns)``. The whole matrix is scaled by one
    common denominator ``L``, not row by row, so that the rows without a
    pivot, which are zero in the first ``ncols`` columns but may not be
    beyond them, come out as the same multiples of the input rows as under
    elimination over ``Fraction``: ``mat / (den * L)``.
    """
    exact = [_exact_row(row) for row in rows]
    scale = lcm(*[x.denominator for row in exact for x in row])
    mat = [[x.numerator * (scale // x.denominator) for x in row] for row in exact]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots, den = eliminate(mat, ncols)
    return [
        [Fraction(x, den if r < len(pivots) else den * scale) for x in row]
        for r, row in enumerate(mat)
    ], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    mat = integer_rows(rows)
    return len(eliminate(mat, len(mat[0]))[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of ``{x : rows @ x = 0}``.

    One primitive integer vector per free column of the reduced form,
    ordered by free column index.
    """
    return [
        tuple(map(Fraction, vec))
        for vec in integer_nullspace(integer_rows(rows), ncols)
    ]


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve ``rows @ x = rhs`` exactly.

    Returns the unique solution as a tuple of Fractions, or one of the
    ``SolveFailure`` values. Failure kinds are return values, not errors.
    """
    ncols = len(rows[0]) if rows else 0
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not all(type(x) is int for row in mat for x in row):
        mat = integer_rows(mat)
    pivots, den = eliminate(mat, ncols + 1)
    if ncols in pivots:
        return Inconsistent
    if len(pivots) < ncols:
        return Underdetermined
    return tuple(Fraction(mat[r][ncols], den) for r in range(ncols))

