"""Face fans and piecewise-linear functions on them."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nefdual.errors import (
    DimensionMismatch,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    ZeroNotInterior,
)
from nefdual import linalg, polytope
from nefdual.duality import run_full_duality
from nefdual.fan import FaceFan, PLFunction, face_fan, pl_from_vertex_values, support_polytope
from nefdual.linalg import Inconsistent
from nefdual.nefpart import enumerate_nef_partitions
from nefdual.polytope import Point, SPACE_N, dual_space, hull, minkowski_sum, pair

import oracles

F = Fraction


def P(*coords):
    return Point(coords)


def N(*coords):
    return Point(coords, SPACE_N)


CROSS = hull([P(1, 0), P(0, 1), P(-1, 0), P(0, -1)])
SQUARE = hull([P(1, 1), P(1, -1), P(-1, 1), P(-1, -1)])
CUBE = hull([P(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
OCTA = hull([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(-1, 0, 0), P(0, -1, 0), P(0, 0, -1)])


def indicator_values(base, members):
    members = {Point(m) for m in members}
    return [F(1) if v in members else F(0) for v in base.vertices]


def test_face_fan_cone_counts():
    assert len(face_fan(CROSS)) == 4
    assert len(face_fan(hull([P(-1), P(1)]))) == 2
    assert len(face_fan(OCTA)) == 8


def test_face_fan_cones_carry_facet_vertex_sets():
    fan = face_fan(CROSS)
    for cone, facet in zip(fan.cones, CROSS.facets):
        assert cone.vertex_indices == facet.incidence
        assert cone.normal == facet.normal


def test_face_fan_preconditions():
    with pytest.raises(NotFullDimensional):
        face_fan(hull([P(-1, 0), P(1, 0)]))
    with pytest.raises(ZeroNotInterior):
        face_fan(hull([P(1, 0), P(2, 0), P(1, 1)]))


def test_fan_locate_covers_sample_points():
    fan = face_fan(OCTA)
    samples = [P(0, 0, 0), P(2, 3, -1), P(F(-1, 3), F(5, 7), F(1, 2)), P(-4, 0, 0)]
    for x in samples:
        cone = fan.locate(x)
        assert fan.cone_contains(cone, x)


def test_pl_indicator_on_cross():
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, indicator_values(CROSS, [(1, 0), (0, 1)]))
    assert set(u.coords for u in f.functionals) == {
        (F(1), F(1)), (F(1), F(0)), (F(0), F(1)), (F(0), F(0))
    }
    assert f.is_convex and f.is_integral


def test_pl_all_ones_on_cross_gives_polar_functionals():
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, [1, 1, 1, 1])
    assert set(u.coords for u in f.functionals) == {
        (F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))
    }
    assert support_polytope(f) == CROSS.polar_dual()


def test_pl_single_corner_on_square_is_not_integral():
    fan = face_fan(SQUARE)
    f = pl_from_vertex_values(fan, indicator_values(SQUARE, [(1, 1)]))
    bad = f.first_nonintegral_cone()
    assert bad is not None
    assert f.functionals[bad].coords == (F(1, 2), F(1, 2))
    assert not f.is_integral
    assert f.is_convex


def test_pl_value_count_mismatch():
    with pytest.raises(DimensionMismatch):
        pl_from_vertex_values(face_fan(CROSS), [1, 0, 0])


def test_pl_values_are_exact_rationals():
    fan = face_fan(CROSS)
    values = [F(1, 2), 1, "0", F(-3)]
    f = pl_from_vertex_values(fan, values)
    assert f.vertex_values == (F(1, 2), F(1), F(0), F(-3))
    assert all(type(v) is F for v in f.vertex_values)
    with pytest.raises(TypeError):
        pl_from_vertex_values(fan, [1.0, 0, 0, 0])


def test_pl_inconsistent_on_nonsimplicial_facet():
    # a cube facet has four vertices; weighting one corner overdetermines the solve
    fan = face_fan(CUBE)
    with pytest.raises(NotPiecewiseLinear) as info:
        pl_from_vertex_values(fan, indicator_values(CUBE, [(1, 1, 1)]))
    assert info.value.cone_index == 0


def test_evaluate_examples():
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, indicator_values(CROSS, [(1, 0), (0, 1)]))
    assert f(P(1, 0)) == 1
    assert f(P(2, 3)) == 5
    assert f(P(0, 0)) == 0


def test_evaluate_is_positively_homogeneous():
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, indicator_values(CROSS, [(1, 0), (0, 1)]))
    x = P(F(2, 3), F(-5, 7))
    assert f(x.scale(F(4))) == 4 * f(x)


def test_support_polytope_examples():
    fan = face_fan(CROSS)
    phi = pl_from_vertex_values(fan, [1, 1, 1, 1])
    assert support_polytope(phi) == hull([N(1, 1), N(1, -1), N(-1, 1), N(-1, -1)])

    zero = pl_from_vertex_values(fan, [0, 0, 0, 0])
    assert support_polytope(zero) == hull([N(0, 0)])

    ind = pl_from_vertex_values(fan, indicator_values(CROSS, [(1, 0), (0, 1)]))
    assert support_polytope(ind) == hull([N(-1, -1), N(-1, 0), N(0, -1), N(0, 0)])


def test_support_polytope_needs_convexity():
    fan = face_fan(CROSS)
    # canonical vertex order (-1,0),(0,-1),(0,1),(1,0); the -2 dip at (0,-1)
    # forces the functional (0,2) on the cone over {(0,-1),(1,0)}, which
    # exceeds the prescribed value 1 at (0,1)
    f = pl_from_vertex_values(fan, [0, -2, 1, 0])
    assert not f.is_convex
    vi, ci = f.first_convexity_violation()
    assert f.vertex_values[vi] < pair(CROSS.vertices[vi], f.functionals[ci])
    with pytest.raises(NotConvex):
        support_polytope(f)


def test_support_vertices_come_from_negated_functionals():
    fan = face_fan(OCTA)
    f = pl_from_vertex_values(fan, indicator_values(OCTA, [(1, 0, 0)]))
    sp = support_polytope(f)
    gens = {(-u).coords for u in f.functionals}
    assert all(v.coords in gens for v in sp.vertices)


def test_pl_addition_and_support_additivity():
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, indicator_values(CROSS, [(1, 0), (0, 1)]))
    g = pl_from_vertex_values(fan, indicator_values(CROSS, [(-1, 0), (0, -1)]))
    total = f + g
    assert total.vertex_values == (F(1), F(1), F(1), F(1))
    assert support_polytope(total) == minkowski_sum(support_polytope(f), support_polytope(g))


def _decided(f):
    return (f.vertex_values, f.functionals, f.is_convex, f.is_integral, f.first_convexity_violation())


def test_a_sum_of_pl_functions_is_decided_afresh():
    """A sum's convexity and integrality are its own, not its summands':
    a function that is not convex plus one that makes the sum convex, and
    two functions off the lattice whose sum is integral. Each sum equals
    the oracle's extension of the summed values (the Fraction solve per
    cone and the scan over every cone's functional), its witness
    included. Then every pair of functions with values in {-1, 0, 1} on
    the cross and with values in {0, 1/2} on the square."""
    cross = face_fan(CROSS)
    # canonical vertex order (-1,0),(0,-1),(0,1),(1,0)
    bent = pl_from_vertex_values(cross, [0, -2, 1, 0])
    lift = pl_from_vertex_values(cross, [0, 2, 0, 0])
    assert not bent.is_convex and lift.is_convex
    total = bent + lift
    assert total.is_convex and total.is_integral
    assert _decided(total) == _decided(oracles.pl_from_vertex_values(cross, [0, 0, 1, 0]))
    half = pl_from_vertex_values(cross, [F(1, 2)] * 4)
    other = pl_from_vertex_values(cross, [F(1, 2), F(1, 2), F(1, 2), F(3, 2)])
    assert not half.is_integral and not other.is_integral
    total = half + other
    assert total.is_integral
    assert _decided(total) == _decided(oracles.pl_from_vertex_values(cross, [1, 1, 1, 2]))
    kinds = {"is_convex": Counter(), "is_integral": Counter()}
    for base, levels in ((CROSS, (-1, 0, 1)), (SQUARE, (0, F(1, 2)))):
        fan = face_fan(base)
        functions = [
            pl_from_vertex_values(fan, values)
            for values in itertools.product(levels, repeat=len(base.vertices))
        ]
        for f, g in itertools.product(functions, repeat=2):
            total = f + g
            values = [a + b for a, b in zip(f.vertex_values, g.vertex_values)]
            assert _decided(total) == _decided(oracles.pl_from_vertex_values(fan, values))
            for kind, counts in kinds.items():
                both = getattr(f, kind) and getattr(g, kind)
                counts[both, getattr(total, kind)] += 1
    # summands not both convex (or integral) with a sum that is, and with one that is not
    assert all(counts[False, True] and counts[False, False] for counts in kinds.values()), kinds


value = st.integers(0, 2)


@settings(max_examples=60, deadline=None)
@given(st.tuples(value, value, value, value), st.tuples(value, value, value, value))
def test_support_additivity_random_convex_pairs(vals_f, vals_g):
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, list(vals_f))
    g = pl_from_vertex_values(fan, list(vals_g))
    if not (f.is_convex and g.is_convex):
        return
    assert support_polytope(f + g) == minkowski_sum(
        support_polytope(f), support_polytope(g)
    )


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_evaluate_matches_max_formula_for_convex(xy):
    fan = face_fan(CROSS)
    f = pl_from_vertex_values(fan, [1, 1, 0, 0])
    assert f.is_convex
    x = P(*xy)
    assert f(x) == max(pair(x, u) for u in f.functionals)


def _unit(d, i):
    return tuple(int(j == i) for j in range(d))


def _bases(d):
    """Bases in dimension d with the origin inside.

    Three reflexive ones: two simplicial, one non-simplicial (the d-cube
    for d <= 4; each facet of the 4-cube lists 4 coplanar, hence linearly
    dependent, vertices first). Two with rational vertices, which give
    the vertex denominators a part in the cone kernels: the cross-polytope
    scaled by 1/2 and the cube or simplex scaled by 2/3, and in the plane a
    rational pentagon as well.
    """
    simplex = [_unit(d, i) for i in range(d)] + [(-1,) * d]
    cross = [tuple(s * c for c in _unit(d, i)) for i in range(d) for s in (1, -1)]
    if d <= 4:
        boxy = list(itertools.product((1, -1), repeat=d))  # the d-cube
    else:
        boxy = [p[:-1] + (t,) for p in simplex for t in (1, -1)]  # simplex x segment
    half_cross = [tuple(F(c, 2) for c in p) for p in cross]
    scaled = [tuple(F(2 * c, 3) for c in p) for p in (boxy if d <= 3 else simplex)]
    point_sets = [simplex, cross, boxy, half_cross, scaled]
    if d == 2:
        point_sets.append(
            [(F(1, 2), 0), (F(1, 3), F(2, 3)), (-1, F(1, 3)), (F(-3, 4), F(-1, 2)), (F(2, 5), -1)]
        )
    return [hull([Point(c) for c in pts]) for pts in point_sets]


# Built once, so the fans' memos carry over between examples.
PL_BASES = {d: _bases(d) for d in range(2, 6)}


def test_pl_bases_exercise_vertex_denominators_and_the_basis_search():
    bases = [base for d in PL_BASES for base in PL_BASES[d]]
    assert sum(not base.is_lattice() for base in bases) == 9
    assert any(len(f.incidence) > base.ambient_dim for base in bases if not base.is_lattice()
               for f in base.facets)
    # some facet's first d vertices are linearly dependent, so its kernel's
    # basis is not its first d vertices
    assert any(
        len(oracles.rref([base.vertices[i].coords for i in f.incidence[:base.ambient_dim]])[1])
        < base.ambient_dim
        for base in bases
        for f in base.facets
    )


def _fraction_scan(f):
    """First (vertex, cone) with ``<vertex, functional> > value``, by the
    Fraction pairing of tests/oracles.py."""
    return next(
        (
            (vi, ci)
            for vi, v in enumerate(f.fan.base.vertices)
            for ci, u in enumerate(f.functionals)
            if oracles.pair(v, u) > f.vertex_values[vi]
        ),
        None,
    )


def _pl_outcome(route, scan, fan, values):
    """Everything a PL extension gives, its first convexity violation by
    ``scan`` included, or the exception and its cone."""
    try:
        f = route(fan, values)
    except NotPiecewiseLinear as exc:
        return ("NotPiecewiseLinear", exc.cone_index)
    return (f.vertex_values, f.functionals, f.is_convex, f.is_integral, f, scan(f))


LIBRARY = (pl_from_vertex_values, PLFunction.first_convexity_violation)
ORACLE = (oracles.pl_from_vertex_values, _fraction_scan)


@st.composite
def fan_and_values(draw):
    """A fan of dimension 2 to 5 and vertex values on it.

    Values are 0/1 indicators, p/q rationals (on a non-simplicial facet
    these are mostly inconsistent), the restriction of one rational linear
    functional (consistent on every cone), or such a restriction with one
    value changed.
    """
    d = draw(st.integers(2, 5))
    base = draw(st.sampled_from(PL_BASES[d]))
    n = len(base.vertices)
    kind = draw(st.sampled_from(["0/1", "p/q", "linear", "linear, one changed"]))
    if kind == "0/1":
        values = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif kind == "p/q":
        q = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
        values = draw(st.lists(q, min_size=n, max_size=n))
    else:
        u = [F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(d)]
        values = [sum(a * b for a, b in zip(v.coords, u)) for v in base.vertices]
        if kind == "linear, one changed":
            values[draw(st.integers(0, n - 1))] += 1
    return face_fan(base), values


@settings(max_examples=150, deadline=None)
@given(fan_and_values())
def test_memoized_pl_extension_matches_the_solve_per_cone_route(case):
    fan, values = case
    expected = _pl_outcome(*ORACLE, fan, values)
    assert _pl_outcome(*LIBRARY, fan, values) == expected
    # the second call reads every cone off the table its first call built
    assert _pl_outcome(*LIBRARY, fan, values) == expected
    # an indicator shares cone patterns with many others: 1 on the first vertex
    indicator = [1] + [0] * (len(values) - 1)
    assert _pl_outcome(*LIBRARY, fan, indicator) == _pl_outcome(*ORACLE, fan, indicator)


# Bases with non-simplicial facets, whose kernels find their basis in the
# same elimination that inverts it: the octahedron x segment and the
# triangle x triangle of the enum4d benchmark workload, the cube and the
# 4-cube.
NON_SIMPLICIAL = {
    "octahedron_x_segment": [
        tuple(s * c for c in _unit(3, i)) + (t,) for i in range(3) for s in (1, -1) for t in (1, -1)
    ],
    "triangle_x_triangle": [
        p + q for p in [(1, 0), (0, 1), (-1, -1)] for q in [(1, 0), (0, 1), (-1, -1)]
    ],
    "cube": list(itertools.product((1, -1), repeat=3)),
    "cube4": list(itertools.product((1, -1), repeat=4)),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL))
def test_every_cone_pattern_gets_the_solve_per_cone_answer(name):
    """Each cone's functional for every 0/1 pattern on its vertices, and for
    the pattern 0, 1, 2, ... (which leaves few of them consistent), is the
    solution of the oracle's Fraction solve, or Inconsistent where
    that has none."""
    fan = face_fan(hull([Point(c) for c in NON_SIMPLICIAL[name]]))
    verts = fan.base.vertices
    for cone in fan:
        m = len(cone.vertex_indices)
        assert m > fan.base.ambient_dim
        patterns = list(itertools.product((0, 1), repeat=m)) + [tuple(range(m))]
        for values in patterns:
            expected = oracles.solve_linear(
                [(verts[i], F(v)) for i, v in zip(cone.vertex_indices, values)]
            )
            assert fan.cone_functional(cone.index, values) == expected, (cone.index, values)


def test_cone_functionals_equal_the_solve_per_cone_on_every_corpus_fan_and_polar_fan(corpus):
    """On every cone of the face fan of every corpus polytope and of its
    polar, the functional for rational values equals the oracle's Fraction
    solve: values taken by a rational functional (consistent on every cone),
    the same with one value moved by 1/3 (Inconsistent on a non-simplicial
    cone) and the 0/1 pattern of every other vertex."""
    rng = random.Random(7)
    checked = Counter()
    for entry in corpus:
        for base in (entry.polytope, entry.polytope.polar_dual()):
            base = hull(list(base.vertices))  # a fan of its own, no table shared
            fan = face_fan(base)
            verts = base.vertices
            space = dual_space(base.space)
            for cone in fan:
                coords = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(base.ambient_dim)]
                u = Point(coords, space)
                points = [verts[i] for i in cone.vertex_indices]
                taken = [pair(p, u) for p in points]
                moved = taken[:-1] + [taken[-1] + F(1, 3)]
                pattern = [F(k % 2) for k in range(len(taken))]
                for values in (taken, moved, pattern):
                    expected = oracles.solve_linear(list(zip(points, values)))
                    got = fan.cone_functional(cone.index, tuple(values))
                    assert got == expected, (entry.name, base.space, cone.index, values)
                    checked[expected is Inconsistent] += 1
                assert fan.cone_functional(cone.index, tuple(taken)) == u
    assert checked[True] and checked[False]


def test_cone_functional_takes_one_exact_value_per_cone_vertex():
    """A cone of the pentagon below has 2 vertices: 3, 1 or 0 values are a
    DimensionMismatch, and a float or a value that is no number is a
    TypeError. A str is parsed as ``pl_from_vertex_values`` parses it."""
    fan = face_fan(hull([P(1, 0), P(0, 1), P(-1, 0), P(0, -1), P(1, 1)]))
    assert len(fan.cones[0].vertex_indices) == 2
    for values in ((1, 1, 1), (1,), ()):
        with pytest.raises(DimensionMismatch):
            fan.cone_functional(0, values)
    for values in ((1.0, 1), (1, F(1, 2) + 0.0), (None, 1), (1, object())):
        with pytest.raises(TypeError):
            fan.cone_functional(0, values)
    assert fan.cone_functional(0, ("1/2", 1)) == fan.cone_functional(0, (F(1, 2), 1))


def test_a_string_that_is_no_exact_number_is_one_value_error_naming_it():
    """``Point``, ``pl_from_vertex_values`` and ``cone_functional`` take
    their values alike: a string that ``Fraction`` cannot read, "1/0"
    among them, is a ``ValueError`` whose message names it; a value that
    is no number, a ``float`` or ``None``, is a ``TypeError``; and a
    numeric string is parsed."""
    fan = face_fan(CROSS)
    readers = (
        lambda x: Point((x, 1)),
        lambda x: pl_from_vertex_values(fan, [x, 0, 0, 1]),
        lambda x: fan.cone_functional(0, (x, 1)),
    )
    for read in readers:
        for text in ("x", "1/0", "", "nan", "1/2/3"):
            with pytest.raises(ValueError) as info:
                read(text)
            assert repr(text) in str(info.value)
        for value in (None, 0.5, b"1", 1j):
            with pytest.raises(TypeError):
                read(value)
        assert read(" -1/2 ") == read(F(-1, 2))


def test_every_cone_table_meets_its_definition_from_every_parent(corpus, scale_bench):
    """Each cone's table, built by exchange from the table built before it,
    meets the table's definition, with the cones' tables built in index
    order, in reversed order and in two seeded shuffles, so that each
    exchange starts from other parents. With b_r the integer form of basis
    vertex r, n vertices and d the dimension: the basis is d vertices of
    the cone and the others are the rest of them; D = |det B| (Leibniz
    formula, ``oracles.determinant``); rows[r][basis[s]] = D δ_rs;
    Σ_r rows[r][v] b_r = D v for every base vertex v; and the identity
    block E (the last d entries of the rows) satisfies E Bᵀ = D I. The
    bases: every corpus polytope and its polar (two polars have vertices
    off the lattice), the three enum4d inputs, and cube4, hex⊕hex and
    cross5 of bench/scale.py."""
    bases = []
    for entry in corpus:
        for base in (entry.polytope, entry.polytope.polar_dual()):
            bases.append([v.coords for v in base.vertices])
    bases.append([_unit(4, i) for i in range(4)] + [(-1,) * 4])
    bases += [NON_SIMPLICIAL["octahedron_x_segment"], NON_SIMPLICIAL["triangle_x_triangle"]]
    bases += [scale_bench.POLYTOPES[n] for n in ("cube4", "hex+hex", "cross5")]
    rng = random.Random(29)
    checked = Counter()
    for coords in bases:
        index_order = list(range(len(face_fan(hull([Point(c) for c in coords])))))
        orders = [index_order, index_order[::-1]]
        orders += [rng.sample(index_order, len(index_order)) for _ in range(2)]
        for order in orders:
            fan = face_fan(hull([Point(c) for c in coords]))  # a fan of its own
            verts = fan.base.vertices
            n, d = len(verts), fan.base.ambient_dim
            for c in order:
                table = fan._kernel(c)
                cone = fan.cones[c]
                rows, basis, det = table.rows, table.basis, table.det
                assert len(basis) == d and set(basis) <= set(cone.vertex_indices)
                assert sorted(basis + list(table.others)) == sorted(cone.vertex_indices)
                b = [verts[v]._num for v in basis]
                assert det == abs(oracles.determinant(b)) > 0
                for r in range(d):
                    assert [rows[r][v] for v in basis] == [det * (s == r) for s in range(d)]
                for v in range(n):
                    combo = [sum(rows[r][v] * b[r][j] for r in range(d)) for j in range(d)]
                    assert combo == [det * x for x in verts[v]._num], (coords, c, v)
                for r in range(d):
                    row = [sum(rows[r][n + j] * b[s][j] for j in range(d)) for s in range(d)]
                    assert row == [det * (s == r) for s in range(d)], (coords, c, r)
                checked[det > 1, all(v.is_lattice() for v in verts)] += 1
    assert set(checked) == {(True, True), (False, True), (True, False), (False, False)}


def test_no_linear_solve_is_left_on_the_pl_path_and_each_used_cone_gets_one_kernel(monkeypatch):
    """Enumeration and full duality on fresh polytopes call ``linalg.solve``
    0 times. No cone of any nabla's fan gets a table, though each nabla's
    fan is asked for entries: the dual's are read off the delta parts.
    On each delta's fan, each cone read by a row sum gets exactly one
    table, and no other fan gets one; nothing asks for a functional."""
    solves = []
    original_solve = linalg.solve

    def counting_solve(*args):
        solves.append(1)
        return original_solve(*args)

    for module in (linalg, polytope):
        monkeypatch.setattr(module, "solve", counting_solve)

    alive = []  # keeps every base alive, so that its id stays unique
    built = []
    used = set()

    original_kernel = FaceFan._kernel

    def counting_kernel(self, index):
        # A table is built exactly when the fan has none stored for the cone.
        if self._kernels[index] is None:
            alive.append(self.base)
            built.append((id(self.base), index))
        return original_kernel(self, index)

    searched = set()
    functionals = []
    original_entry = FaceFan.entry
    original_read = FaceFan._read

    def recording_entry(self, index, s):
        alive.append(self.base)
        used.add((id(self.base), index))
        return original_entry(self, index, s)

    def recording_read(self, index, pattern):
        alive.append(self.base)
        searched.add((id(self.base), index))
        return original_read(self, index, pattern)

    monkeypatch.setattr(FaceFan, "_kernel", counting_kernel)
    monkeypatch.setattr(FaceFan, "entry", recording_entry)
    monkeypatch.setattr(FaceFan, "_read", recording_read)
    monkeypatch.setattr(FaceFan, "cone_functional", lambda *args: functionals.append(args))
    simplex4 = [_unit(4, i) for i in range(4)] + [(-1,) * 4]
    octahedron = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    deltas = []
    nablas = []
    for coords in (octahedron, simplex4):
        deltas.append(hull([Point(c) for c in coords]))
        for np_ in enumerate_nef_partitions(deltas[-1], 2):
            result = run_full_duality(np_)
            assert result.all_passed
            nablas.append(result.nabla)
    assert len(nablas) == 31 + 15  # every set partition of either vertex set is nef
    assert solves == functionals == []
    delta_ids = {id(base) for base in deltas}
    nabla_ids = {id(base) for base in nablas}
    assert len(built) == len(set(built)) > 0
    assert not nabla_ids & {base for base, _ in built}
    assert nabla_ids <= {base for base, _ in used}
    assert {base for base, _ in searched} == delta_ids
    assert set(built) == searched
