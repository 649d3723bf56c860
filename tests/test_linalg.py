from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nefdual.linalg import (
    Inconsistent,
    Underdetermined,
    integer_rows,
    nullspace,
    rank,
    rref,
    solve,
)

F = Fraction


def test_solve_identity_like():
    assert solve([[1, 0], [0, 1]], [1, 0]) == (F(1), F(0))


def test_solve_two_by_two_fractional():
    assert solve([[1, 1], [1, -1]], [1, 0]) == (F(1, 2), F(1, 2))


def test_solve_contradictory_multiples():
    assert solve([[1, 0], [2, 0]], [1, 0]) is Inconsistent


def test_solve_underdetermined():
    assert solve([[1, 1]], [1]) is Underdetermined


def test_solve_overdetermined_consistent():
    # third row is the sum of the first two
    assert solve([[1, 0], [0, 1], [1, 1]], [2, 3, 5]) == (F(2), F(3))


def test_rref_pivots_and_shape():
    mat, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert mat[0] == [F(1), F(2)]
    assert mat[1] == [F(0), F(0)]


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


def test_nullspace_of_empty_system_is_standard_basis():
    basis = nullspace([], 3)
    assert basis == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_nullspace_vectors_are_primitive_kernel_elements():
    rows = [[1, 1, 0], [0, 1, 1]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    (vec,) = basis
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert all(x.denominator == 1 for x in vec)


small = st.integers(-5, 5)


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
       st.tuples(small, small, small))
def test_solve_solution_satisfies_every_equation(rows, rhs_seed):
    rows = [list(r) for r in rows]
    rhs = list(rhs_seed)[: len(rows)] + [0] * max(0, len(rows) - 3)
    out = solve(rows, rhs)
    if out in (Inconsistent, Underdetermined):
        return
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, out)) == b


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4))
def test_nullspace_annihilates(rows):
    rows = [list(r) for r in rows]
    for vec in nullspace(rows, 3):
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    assert rank(rows) + len(nullspace(rows, 3)) == 3


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        integer_rows([[1, 0.5]])
    with pytest.raises(TypeError):
        solve([[1, 0], [0, 1]], [0.1, 0])
    with pytest.raises(TypeError):
        rank([[F(1, 3), 2.0]])


# Differential tests of the integer elimination against the Fraction one in
# oracles.py, in dimensions 1-5. Matrices are built as products of an m x r
# and an r x n factor, so every rank from 0 to min(m, n) occurs; entries are
# lattice integers or p/q rationals.
lattice = st.integers(-4, 4)
rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    entry = draw(st.sampled_from([lattice, rational]))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return [
        [sum((left[i][t] * right[t][j] for t in range(r)), 0) for j in range(n)]
        for i in range(m)
    ]


def oracle_nullspace(rows, ncols):
    """Primitive kernel basis read off the Fraction reduced form."""
    mat, pivots = oracles.rref(rows, ncols)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -mat[r][fcol]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        basis.append(tuple(Fraction(v // g) for v in ints))
    return basis


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_rref_rank_nullspace_match_the_fraction_elimination(rows, data):
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    assert (mat, pivots) == oracles.rref(rows)
    narrow = data.draw(st.integers(0, ncols), label="ncols")
    assert rref(rows, narrow) == oracles.rref(rows, narrow)
    assert all(type(x) is Fraction for row in mat for x in row)
    assert rank(rows) == len(pivots)
    basis = nullspace(rows, ncols)
    assert basis == oracle_nullspace(rows, ncols)
    assert all(type(x) is Fraction for vec in basis for x in vec)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_the_oracle_solver(rows, data):
    ncols = len(rows[0])
    entry = st.one_of(lattice, rational)
    if data.draw(st.booleans(), label="consistent"):
        x = data.draw(st.lists(entry, min_size=ncols, max_size=ncols), label="x")
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
    else:
        rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)), label="rhs")
    status, expected = oracles._solve(rows, rhs)
    got = solve(rows, rhs)
    if status == "inconsistent":
        assert got is Inconsistent
    elif status == "underdetermined":
        assert got is Underdetermined
    else:
        assert got == expected
        assert all(type(x) is Fraction for x in got)
