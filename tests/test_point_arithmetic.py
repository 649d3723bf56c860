"""The integer form of points against the former ``Fraction`` arithmetic.

Every ``Point`` carries ``_num``/``_den``, and the pairing, ``contains``,
``solve_linear`` and the point comparisons run on them. The reference is the
``Fraction`` code they replaced, kept in ``oracles.py``. Results and raised
exceptions must agree in dimensions 1-5, for lattice and ``p/q``
coordinates, in both spaces, on lower-dimensional polytopes and on
mismatched, inconsistent and underdetermined input.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from hypothesis import given, settings, strategies as st

import oracles
from nefdual.errors import DimensionMismatch
from nefdual.polytope import (
    Facet,
    LinearEquality,
    Point,
    Polytope,
    SPACE_M,
    SPACE_N,
    hull,
    origin,
    pair,
    solve_linear,
)

F = Fraction
spaces = st.sampled_from([SPACE_M, SPACE_N])
lattice = st.integers(-4, 4)
rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def outcome(fn, *args):
    """What a call did: ("ok", value) or ("raise", type, message)."""
    try:
        return ("ok", fn(*args))
    except (DimensionMismatch, TypeError, ValueError) as exc:
        return ("raise", type(exc), str(exc))


def assert_canonical(p):
    """The integer form is the reduced one and spells the coordinates."""
    assert p._den > 0
    assert gcd(p._den, *p._num) == 1
    assert p.coords == tuple(F(x, p._den) for x in p._num)
    assert all(type(c) is F for c in p.coords)
    fresh = Point(p.coords, p.space)
    assert (fresh._num, fresh._den) == (p._num, p._den)


@st.composite
def points(draw, d=None, space=None):
    d = draw(st.integers(1, 5)) if d is None else d
    space = draw(spaces) if space is None else space
    entry = draw(st.sampled_from([lattice, rational, st.one_of(lattice, rational)]))
    return Point(draw(st.lists(entry, min_size=d, max_size=d)), space)


@st.composite
def point_pairs(draw):
    """Two points that often share a dimension, a space or all coordinates."""
    a = draw(points())
    how = draw(st.sampled_from(["equal", "same dim", "same space", "any"]))
    if how == "equal":
        # the same value, spelled with ints, Fractions or strings
        spell = draw(
            st.sampled_from([lambda c: c, str, lambda c: c.numerator if c.denominator == 1 else c])
        )
        return a, Point([spell(c) for c in a.coords], a.space)
    if how == "same dim":
        return a, draw(points(d=a.dim))
    if how == "same space":
        return a, draw(points(space=a.space))
    return a, draw(points())


@settings(max_examples=300, deadline=None)
@given(point_pairs())
def test_pairing_matches_the_fraction_pairing(xy):
    x, y = xy
    got = outcome(pair, x, y)
    assert got == outcome(oracles.pair, x, y)
    if got[0] == "ok":
        assert type(got[1]) is F
    else:
        assert got[1] is DimensionMismatch


@settings(max_examples=300, deadline=None)
@given(point_pairs())
def test_equality_order_and_hash_match_the_fraction_comparisons(ab):
    a, b = ab
    for p in (a, b):
        assert_canonical(p)
        assert p.is_lattice() == all(c.denominator == 1 for c in p.coords)
        assert p.is_zero() == all(c == 0 for c in p.coords)
    assert (a == b) == oracles.point_eq(a, b)
    assert (a != b) == (not oracles.point_eq(a, b))
    if a == b:
        assert hash(a) == hash(b)
        assert oracles.point_hash(a) == oracles.point_hash(b)
    assert outcome(lambda: a < b) == outcome(oracles.point_lt, a, b)
    assert outcome(lambda: a <= b) == outcome(oracles.point_le, a, b)
    assert outcome(lambda: b < a) == outcome(oracles.point_lt, b, a)
    assert outcome(lambda: a > b) == outcome(oracles.point_lt, b, a)
    assert outcome(lambda: a < a.coords) == outcome(oracles.point_lt, a, a.coords)
    assert a != a.coords


def from_form(p, k):
    """``p`` made again by ``_from_form`` from its integer form times ``k``."""
    return Point._from_form(tuple([k * x for x in p._num]), k * p._den, p.space)


@settings(max_examples=300, deadline=None)
@given(point_pairs(), st.integers(1, 6))
def test_points_made_from_a_form_agree_with_points_made_from_coordinates(ab, k):
    """A point made by ``_from_form`` builds its coordinates on first read.
    It orders, compares, hashes and prints like the ``Point`` built from the
    same coordinates, whether or not they have been read."""
    a, b = ab
    la, lb = from_form(a, k), from_form(b, k)
    assert outcome(lambda: la < lb) == outcome(lambda: a < b)
    assert outcome(lambda: la <= lb) == outcome(lambda: a <= b)
    assert outcome(lambda: lb < la) == outcome(lambda: b < a)
    assert (la == lb, la == b, a == lb) == (a == b,) * 3
    for lazy, p in ((la, a), (lb, b)):
        assert lazy == p and hash(lazy) == hash(p) and lazy.dim == p.dim
        assert repr(lazy) == repr(p)
        assert_canonical(lazy)


def test_origin_is_the_zero_point_made_from_coordinates():
    """``origin(d, s)`` equals, hashes, orders and prints like
    ``Point((0,) * d, s)``, and refuses an unknown space tag as it does."""
    for d in range(1, 6):
        for space in (SPACE_M, SPACE_N):
            o, p = origin(d, space), Point((0,) * d, space)
            assert o == p and hash(o) == hash(p) and o.dim == p.dim
            assert repr(o) == repr(p) and o.coords == p.coords
            assert_canonical(o)
            unit = Point((1,) + (0,) * (d - 1), space)
            others = [unit, -unit, Point((F(1, 2),) * d, space), Point((0,) * d, space)]
            for q in others:
                assert (o < q, q < o, o <= q, q <= o) == (p < q, q < p, p <= q, q <= p)
            assert sorted(others + [o]) == sorted(others + [p])
    for fn in (origin, lambda d, space: Point((0,) * d, space)):
        assert outcome(fn, 2, "X") == ("raise", ValueError, "unknown space tag 'X'")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(points(d=d, space=SPACE_M), min_size=1, max_size=8)
    )
)
def test_sorting_and_deduplication_match_the_fraction_order(pts):
    def cmp(a, b):
        return -1 if oracles.point_lt(a, b) else (1 if oracles.point_lt(b, a) else 0)

    assert sorted(pts) == sorted(pts, key=cmp_to_key(cmp))
    assert len(set(pts)) == len({(p.space, p.coords) for p in pts})


@settings(max_examples=200, deadline=None)
@given(point_pairs(), st.one_of(lattice, rational))
def test_point_arithmetic_keeps_the_canonical_form(ab, factor):
    a, b = ab
    for got, want in (
        (lambda: a + b, lambda: tuple(x + y for x, y in zip(a.coords, b.coords))),
        (lambda: a - b, lambda: tuple(x - y for x, y in zip(a.coords, b.coords))),
    ):
        res = outcome(got)
        if a.space == b.space and a.dim == b.dim:
            assert res[0] == "ok" and res[1].coords == want()
            assert_canonical(res[1])
        else:
            assert res[0] == "raise" and res[1] is DimensionMismatch
    for res, want in (
        (-a, tuple(-x for x in a.coords)),
        (a.scale(factor), tuple(F(factor) * x for x in a.coords)),
    ):
        assert res.coords == want and res.space == a.space
        assert_canonical(res)


@st.composite
def polytopes_and_queries(draw):
    """A polytope of any dimension k <= d in either space, lattice or p/q,
    optionally with every facet and equality rescaled by a positive rational
    (the same half-spaces, with non-integer normals), and query points:
    its vertices, their midpoints, random points, and points of the wrong
    space or dimension."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    space = draw(spaces)
    entry = draw(
        st.sampled_from([st.integers(-2, 2), st.builds(F, st.integers(-4, 4), st.integers(1, 3))])
    )
    vec = st.lists(entry, min_size=d, max_size=d)
    base = draw(vec)
    gens = draw(st.lists(vec, min_size=k, max_size=k))
    combos = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=1, max_size=d + 2)
    )
    poly = hull(
        Point([b + sum((c * g[j] for c, g in zip(cs, gens)), 0) for j, b in enumerate(base)], space)
        for cs in combos
    )
    if draw(st.booleans()):
        positive = st.builds(F, st.integers(1, 5), st.integers(1, 5))
        facets = []
        for f in poly.facets:
            s = draw(positive)
            facets.append(Facet(f.normal.scale(s), f.offset * s, f.incidence))
        eqs = []
        for eq in poly.affine_span:
            s = draw(positive) * draw(st.sampled_from([1, -1]))
            eqs.append(LinearEquality(eq.normal.scale(s), eq.value * s))
        poly = Polytope(d, space, poly.vertices, tuple(eqs), tuple(facets))
    verts = list(poly.vertices)
    queries = verts + [
        Point(tuple((x + y) / 2 for x, y in zip(u.coords, v.coords)), space)
        for u, v in zip(verts, verts[1:] + verts[:1])
    ]
    queries += draw(st.lists(points(d=d, space=space), max_size=6))
    queries += draw(st.lists(points(), max_size=3))
    return poly, queries


@settings(max_examples=200, deadline=None)
@given(polytopes_and_queries())
def test_contains_matches_the_fraction_membership(pq):
    poly, queries = pq
    for q in queries:
        got = outcome(poly.contains, q)
        assert got == outcome(oracles.contains, poly, q)
        if q in poly.vertices:
            assert got == ("ok", True)


@st.composite
def linear_systems(draw):
    """Rows of low rank (products of two factors), so that unique,
    underdetermined and inconsistent systems all occur; sometimes a row of
    another space or dimension."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, d + 2))
    r = draw(st.integers(0, min(m, d)))
    space = draw(spaces)
    entry = draw(st.sampled_from([lattice, rational]))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=r, max_size=r))
    rows = [
        Point([sum((left[i][t] * right[t][j] for t in range(r)), 0) for j in range(d)], space)
        for i in range(m)
    ]
    value = st.one_of(lattice, rational)
    if draw(st.booleans()):
        u = draw(st.lists(value, min_size=d, max_size=d))
        values = [sum((c * x for c, x in zip(p.coords, u)), F(0)) for p in rows]
    else:
        values = draw(st.lists(value, min_size=m, max_size=m))
    system = list(zip(rows, values))
    if draw(st.integers(0, 5)) == 0:
        system.insert(draw(st.integers(0, m)), (draw(points()), draw(value)))
    return system


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_the_fraction_rows(system):
    got = outcome(solve_linear, system)
    assert got == outcome(oracles.solve_linear, system)
    if got[0] == "ok" and isinstance(got[1], Point):
        assert_canonical(got[1])


def test_solve_linear_edge_cases_match():
    e1 = Point((1, 0))
    assert outcome(solve_linear, []) == outcome(oracles.solve_linear, [])
    for system in (
        [(e1, 1), (e1, 2)],
        [(e1, F(1, 2))],
        [(e1, "1/3"), (Point((0, 1)), True)],
        [(e1, 1), (Point((0, 1), SPACE_N), 1)],
        [(e1, 1), (Point((0, 1, 0)), 1)],
    ):
        assert outcome(solve_linear, system) == outcome(oracles.solve_linear, system)
