"""Kernel behavior: hulls, polars, reflexivity, Minkowski sums, membership."""

import itertools
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from nefdual import linalg, polytope
from nefdual.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotFullDimensional,
    ZeroNotInterior,
)
from nefdual.duality import _is_polar_sum
from nefdual.linalg import Inconsistent, Underdetermined, eliminate, integer_nullspace
from nefdual.nefpart import _Pairings, enumerate_nef_partitions
from nefdual.polytope import (
    Point,
    Polytope,
    SPACE_M,
    SPACE_N,
    hull,
    minkowski_sum,
    origin,
    pair,
    solve_linear,
)

import oracles
from oracles import caratheodory_member, hrep_vertex_set
from test_nefpart import _audit_inputs

F = Fraction
insert_points = polytope._insert_points


def P(*coords):
    return Point(coords)


def N(*coords):
    return Point(coords, SPACE_N)


CROSS = [P(1, 0), P(0, 1), P(-1, 0), P(0, -1)]
SQUARE = [P(1, 1), P(1, -1), P(-1, 1), P(-1, -1)]
TRIANGLE = [P(1, 0), P(0, 1), P(-1, -1)]


def test_hull_single_point():
    poly = hull([P(0, 0)])
    assert poly.vertices == (P(0, 0),)
    assert poly.facets == ()
    assert len(poly.affine_span) == 2
    assert poly.dim == 0


def test_hull_drops_interior_point():
    poly = hull(CROSS + [P(0, 0)])
    assert poly == hull(CROSS)
    assert len(poly.vertices) == 4


def test_hull_triangle_facets():
    poly = hull(TRIANGLE)
    data = sorted(
        (tuple(int(c) for c in f.normal.coords), int(f.offset)) for f in poly.facets
    )
    assert data == [((-1, -1), 1), ((-1, 2), 1), ((2, -1), 1)]


def test_hull_facet_incidence_is_exact():
    poly = hull(TRIANGLE)
    for f in poly.facets:
        for i, v in enumerate(poly.vertices):
            value = pair(v, f.normal)
            assert value >= -f.offset
            assert (value == -f.offset) == (i in f.incidence)


def test_hull_lower_dimensional_segment():
    poly = hull([P(-1, 0, 0), P(1, 0, 0), P(0, 0, 0)])
    assert poly.dim == 1
    assert len(poly.affine_span) == 2
    assert poly.vertices == (P(-1, 0, 0), P(1, 0, 0))
    # facets live inside the span: the two endpoints
    assert len(poly.facets) == 2
    assert poly.contains(P(F(1, 2), 0, 0))
    assert not poly.contains(P(0, 1, 0))


def test_point_rejects_float_coordinates():
    with pytest.raises(TypeError):
        Point((0.1, 0))
    with pytest.raises(TypeError):
        P(1, 0).scale(0.5)
    assert Point(("1/2", F(1, 3), 2)).coords == (F(1, 2), F(1, 3), F(2))


def test_hull_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hull([P(1, 0), P(1, 0, 0)])


def test_polar_square_is_cross():
    assert hull(SQUARE).polar_dual() == hull([N(1, 0), N(0, 1), N(-1, 0), N(0, -1)])


def test_polar_triangle():
    assert hull(TRIANGLE).polar_dual() == hull([N(-1, -1), N(2, -1), N(-1, 2)])


def test_polar_biduality_examples():
    for pts in (CROSS, SQUARE, TRIANGLE):
        poly = hull(pts)
        assert poly.polar_dual().polar_dual() == poly


def test_polar_requires_interior_origin():
    shifted = hull([P(1, 0), P(2, 0), P(1, 1)])
    with pytest.raises(ZeroNotInterior):
        shifted.polar_dual()


def test_polar_requires_full_dimension():
    segment3d = hull([P(-1, 0, 0), P(1, 0, 0)])
    with pytest.raises(NotFullDimensional):
        segment3d.polar_dual()


def test_is_lattice():
    assert hull(TRIANGLE).is_lattice()
    assert not hull([P(F(1, 2), 0), P(0, 1), P(-1, -1)]).is_lattice()
    assert hull(SQUARE).polar_dual().is_lattice()


def test_is_reflexive():
    assert hull(CROSS).is_reflexive()
    assert not hull([P(2, 0), P(0, 1), P(-2, -1)]).is_reflexive()
    assert not hull([P(2, 2), P(2, -2), P(-2, 2), P(-2, -2)]).is_reflexive()
    assert not hull([P(F(1, 2), 0), P(0, 1), P(-1, -1)]).is_reflexive()


def test_a_polytope_found_reflexive_answers_zero_interior_with_no_pass_over_its_facets(
    monkeypatch,
):
    cross = hull(CROSS)
    square_big = hull([P(2, 2), P(2, -2), P(-2, 2), P(-2, -2)])
    assert cross.is_reflexive() and not square_big.is_reflexive()

    def no_facets(self):
        raise AssertionError("read the facets")

    monkeypatch.setattr(Polytope, "facets", property(no_facets))
    assert cross.has_zero_interior
    # one found not reflexive is still decided by its facets
    with pytest.raises(AssertionError, match="read the facets"):
        square_big.has_zero_interior


def test_minkowski_box_decomposition():
    seg_x = hull([P(-1, 0), P(1, 0)])
    seg_y = hull([P(0, -1), P(0, 1)])
    assert minkowski_sum(seg_x, seg_y) == hull(SQUARE)


def test_minkowski_identity_element():
    poly = hull(TRIANGLE)
    assert minkowski_sum(poly, hull([P(0, 0)])) == poly


def test_minkowski_segment_plus_box_is_cube():
    seg = hull([P(-1, 0, 0), P(0, 0, 0)])
    box = hull([P(x, y, z) for x in (0, 1) for y in (-1, 1) for z in (-1, 1)])
    cube = hull([P(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert minkowski_sum(seg, box) == cube


def test_minkowski_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum(hull(CROSS), hull([P(-1, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]))
    with pytest.raises(DimensionMismatch):
        minkowski_sum(hull(CROSS), hull(CROSS).polar_dual())


def test_contains():
    cross = hull(CROSS)
    assert cross.contains(P(0, 0))
    assert not cross.contains(P(1, 1))
    assert cross.contains(P(F(1, 2), F(1, 2)))


def test_lattice_points():
    cross = hull(CROSS)
    pts = cross.lattice_points()
    assert [p.coords for p in pts] == [
        (F(-1), F(0)), (F(0), F(-1)), (F(0), F(0)), (F(0), F(1)), (F(1), F(0))
    ]
    assert len(hull([P(-1, 0), P(1, 0)]).lattice_points()) == 3
    assert len(hull(SQUARE).lattice_points()) == 9


def test_solve_linear():
    assert solve_linear([(P(1, 0), 1), (P(0, 1), 0)]) == N(1, 0)
    assert solve_linear([(P(1, 1), 1), (P(1, -1), 0)]) == N(F(1, 2), F(1, 2))
    assert solve_linear([(P(1, 0), 1), (P(2, 0), 0)]) is Inconsistent
    assert solve_linear([(P(1, 0), 1)]) is Underdetermined


def test_solve_linear_result_lives_in_dual_space():
    u = solve_linear([(N(1, 0), 1), (N(0, 1), 0)])
    assert u.space == SPACE_M


def test_pair_requires_opposite_spaces():
    with pytest.raises(DimensionMismatch):
        pair(P(1, 0), P(0, 1))
    assert pair(P(2, 3), N(1, 1)) == 5


def test_contains_matches_convex_combination_oracle():
    fixtures = [hull(CROSS), hull(SQUARE), hull(TRIANGLE)]
    grid = [
        P(F(a, 2), F(b, 2)) for a in range(-4, 5) for b in range(-4, 5)
    ]
    for poly in fixtures:
        coords = [v.coords for v in poly.vertices]
        for x in grid:
            assert poly.contains(x) == caratheodory_member(x.coords, coords)


coord = st.integers(-3, 3)
points2 = st.lists(st.tuples(coord, coord), min_size=1, max_size=7)
points3 = st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(points2 | points3)
def test_hull_idempotent_and_sound(raw):
    pts = [Point(c) for c in raw]
    poly = hull(pts)
    assert hull(list(poly.vertices)) == poly
    for x in pts:
        assert poly.contains(x)
        for f in poly.facets:
            assert pair(x, f.normal) >= -f.offset


@settings(max_examples=60, deadline=None)
@given(points2)
def test_polar_biduality_random(raw):
    pts = [Point(c) for c in raw]
    for i in range(2):
        unit = [0, 0]
        unit[i] = 1
        pts.append(Point(tuple(unit)))
        pts.append(Point(tuple(-u for u in unit)))
    poly = hull(pts)  # origin interior by construction
    assert poly.polar_dual().polar_dual() == poly


@settings(max_examples=40, deadline=None)
@given(points2, points2, points2)
def test_minkowski_commutative_associative(raw_a, raw_b, raw_c):
    a = hull([Point(c) for c in raw_a[:4]])
    b = hull([Point(c) for c in raw_b[:4]])
    c = hull([Point(c) for c in raw_c[:4]])
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))
    zero = hull([origin(2, SPACE_M)])
    assert minkowski_sum(a, zero) == a


@settings(max_examples=60, deadline=None)
@given(points3)
def test_reflexive_iff_lattice_polar_random(raw):
    pts = [Point(c) for c in raw]
    for i in range(3):
        unit = [0, 0, 0]
        unit[i] = 1
        pts.append(Point(tuple(unit)))
        pts.append(Point(tuple(-u for u in unit)))
    poly = hull(pts)
    assert poly.is_reflexive() == poly.polar_dual().is_lattice()


@st.composite
def affine_point_sets(draw, max_points=None):
    """Points of Z^d or (1/q)Z^d, d in 1..5, spanning an affine space of any
    dimension k <= d: a base point plus small integer combinations of k
    generators. By default at most d + 2 points keep the brute-force oracles
    fast."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    vec = st.lists(entry, min_size=d, max_size=d)
    base = draw(vec)
    gens = draw(st.lists(vec, min_size=k, max_size=k))
    combos = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=k, max_size=k),
            min_size=1,
            max_size=max_points or d + 2,
        )
    )
    return [
        Point(tuple(b + sum((c * g[j] for c, g in zip(cs, gens)), 0) for j, b in enumerate(base)))
        for cs in combos
    ]


@settings(max_examples=60, deadline=None)
@given(affine_point_sets())
def test_hull_matches_the_oracles_on_lattice_and_rational_points(pts):
    poly = hull(pts)
    coords = sorted({p.coords for p in pts})
    verts = [v.coords for v in poly.vertices]
    assert verts == sorted(verts) and set(verts) <= set(coords)
    for v in verts:
        assert not caratheodory_member(v, [c for c in coords if c != v])
    for c in coords:
        assert caratheodory_member(c, verts)
    assert all(
        type(x) is F for f in poly.facets for x in f.normal.coords + (f.offset,)
    )
    if poly.is_full_dimensional:
        ineqs = [(f.normal.coords, -f.offset) for f in poly.facets]
        assert hrep_vertex_set(ineqs, len(coords[0])) == verts


def hull_record(poly):
    return (poly.ambient_dim, poly.space, poly.vertices, poly.affine_span, poly.facets)


# The hull against the certificate from the definition in tests/oracles.py,
# which checks the span, every facet and the face lattice of the facets'
# point masks, and calls nothing of the library.


def assert_hull_is_certified(pts):
    """The hull passes ``oracles.certify_hull``: span, facets with their
    incidences, and vertices. It reaches the library's insertion exactly
    when the input is not a simplex."""
    calls = []

    def counted(*args):
        calls.append(1)
        return insert_points(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_insert_points", counted)
        poly = hull(pts)
    oracles.certify_hull(pts, poly)
    assert len(calls) == (len(set(pts)) > poly.dim + 1)


@settings(max_examples=1200, deadline=None)
@given(affine_point_sets(max_points=14))
def test_hull_is_certified_on_random_points(pts):
    assert_hull_is_certified(pts)


LARGER_INPUTS = [
    # every lattice point of a cube: many coplanar points per facet
    [P(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)],
    # a 4D cross-polytope with its lattice points, and one face pushed out
    [P(*(s if j == i else 0 for j in range(4))) for i in range(4) for s in (-1, 0, 1)]
    + [P(1, 1, 0, 0), P(F(1, 2), F(1, 2), F(1, 2), F(1, 2))],
    # a 5-simplex with points on its edges and a lower-dimensional slice
    [P(*(1 if j == i else 0 for j in range(5))) for i in range(5)]
    + [P(-1, -1, -1, -1, -1), P(0, 0, 0, 0, 0), P(F(1, 2), F(1, 2), 0, 0, 0)],
    [P(t, 2 * t, 0, -t) for t in range(-3, 4)] + [P(1, 0, 0, 0), P(0, 0, 0, 1)],
]


@pytest.mark.parametrize("pts", LARGER_INPUTS)
def test_hull_is_certified_on_larger_inputs(pts):
    assert_hull_is_certified(pts)


def test_the_certificate_calls_none_of_the_library(monkeypatch):
    """The hulls of the larger inputs, made first, pass the certificate
    with the library's eliminations, span basis, plane combination,
    insertion and hull all made to raise."""
    polys = [hull(pts) for pts in LARGER_INPUTS]

    def refused(*args, **kwargs):
        raise AssertionError("the certificate called the library")

    for module, name in [
        (linalg, "eliminate"), (linalg, "integer_nullspace"), (polytope, "eliminate"),
        (polytope, "_span_basis"), (polytope, "_plane_across"), (polytope, "_insert_points"),
        (polytope, "hull"), (oracles, "hull"),
    ]:
        monkeypatch.setattr(module, name, refused)
    for pts, poly in zip(LARGER_INPUTS, polys):
        oracles.certify_hull(pts, poly)


def test_hull_is_certified_on_the_corpus(corpus):
    """On every corpus polytope's vertices, on its lattice points when it
    is a lattice polytope, and on each facet's vertices (one dimension
    less), and on the larger inputs."""
    inputs = list(LARGER_INPUTS)
    for entry in corpus:
        poly = entry.polytope
        inputs.append(list(poly.vertices))
        if poly.is_lattice():
            inputs.append(poly.lattice_points())
        inputs += [[poly.vertices[i] for i in f.incidence] for f in poly.facets]
    for pts in inputs:
        assert_hull_is_certified(pts)


@st.composite
def simplex_point_sets(draw):
    """k + 1 affinely independent points of Z^d or (1/q)Z^d, d in 1..5 and
    k in 0..d, in drawn order."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    vec = st.lists(entry, min_size=d, max_size=d)
    base = draw(vec)
    dirs = draw(
        st.lists(vec, min_size=k, max_size=k).filter(
            lambda rows: len(oracles.rref(rows, d)[1]) == k
        )
    )
    pts = [Point(tuple(base))] + [
        Point(tuple(b + x for b, x in zip(base, u))) for u in dirs
    ]
    return draw(st.permutations(pts))


@settings(max_examples=600, deadline=None)
@given(simplex_point_sets())
def test_hull_is_certified_on_simplices(pts):
    assert_hull_is_certified(pts)


def test_hull_is_certified_on_every_audited_part(corpus):
    """Every delta and nabla part of the 333 audit inputs, rebuilt from the
    points it is the hull of: the origin and the part's vertices, and the
    negated cone functionals of the part's PL function."""
    count = 0
    for np_ in _audit_inputs(corpus):
        zero = origin(np_.delta.ambient_dim, np_.delta.space)
        for i, f in enumerate(np_.phi):
            assert_hull_is_certified([zero] + np_.part_vertices(i))
            assert_hull_is_certified([-u for u in f.functionals])
        count += 1
    assert count == 333


def _nabla_points(np_):
    """The points ``duality.nabla`` takes the hull of: every vertex of every
    nabla part."""
    return [v for part in np_.nabla_parts for v in part.vertices]


def test_hull_is_certified_on_every_nabla_of_the_corpus(corpus):
    """Nabla of every nef-partition of every reflexive corpus polytope into
    1, 2 or 3 parts."""
    count = 0
    for entry in corpus:
        if not entry.polytope.is_reflexive():
            continue
        for r in (1, 2, 3):
            for np_ in enumerate_nef_partitions(entry.polytope, r):
                assert_hull_is_certified(_nabla_points(np_))
                count += 1
    assert count == 175


@pytest.mark.parametrize("name", ["cross4", "simplex5", "cross5", "hex+seg+seg", "hex+hex"])
def test_hull_is_certified_on_every_nabla_of_the_scale_inputs(scale_bench, name):
    """Nabla of every nef-partition into 2 parts of an input of
    ``bench/scale.py``, in 4 and 5 dimensions."""
    found = enumerate_nef_partitions(scale_bench.fresh(name), 2)
    assert len(found) == scale_bench.EXPECTED[(name, 2)]
    for np_ in found:
        assert_hull_is_certified(_nabla_points(np_))


@st.composite
def lattice_boxes(draw):
    """Every lattice point of a box with 2 or 3 points along each axis of
    Z^d, d in 3..5, so each facet holds many points; or the box of Z^k, k in
    1..d, mapped into Z^d by an injective integer affine map, which is
    lower-dimensional there when k < d."""
    d = draw(st.integers(3, 5))
    embed = draw(st.booleans())
    k = draw(st.integers(1, d)) if embed else d
    sides = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    box = list(itertools.product(*[range(s + 1) for s in sides]))
    if not embed:
        return [Point(xs) for xs in box]
    vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    cols = draw(
        st.lists(vec, min_size=k, max_size=k).filter(
            lambda rows: len(oracles.rref(rows, d)[1]) == k
        )
    )
    base = draw(vec)
    return [
        Point(tuple(b + sum(x * col[j] for x, col in zip(xs, cols)) for j, b in enumerate(base)))
        for xs in box
    ]


@settings(max_examples=100, deadline=None)
@given(lattice_boxes())
def test_hull_is_certified_on_lattice_boxes(pts):
    assert_hull_is_certified(pts)


MUTANT_INPUTS = {
    "full_lattice": LARGER_INPUTS[0],
    "lower_dimensional": LARGER_INPUTS[3],
    "rational": [P(F(1, 2), 0, 0), P(0, F(2, 3), 0), P(0, 0, 1), P(-1, -1, F(-1, 3)), P(0, 0, 0)],
    "simplex": [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(-1, -1, -1)],
}


MUTATIONS = ["dropped_facet", "offset_moved_out", "normal_flipped", "centroid_added"]


def _wrong_records(poly, mutation):
    """Each record the mutation makes of the hull's, with the message its
    rejection must match (None: any failed check). The facet mutations are
    made on every facet in turn."""
    facets = list(poly.facets)

    def record(vertices=poly.vertices, facets=facets):
        return Polytope(poly.ambient_dim, poly.space, tuple(vertices), poly.affine_span, tuple(facets))

    if mutation == "centroid_added":
        centroid = reduce(Point.__add__, poly.vertices).scale(F(1, len(poly.vertices)))
        yield record(vertices=sorted(poly.vertices + (centroid,))), "vertices"
        return
    for j, f in enumerate(facets):
        if mutation == "dropped_facet":
            yield record(facets=facets[:j] + facets[j + 1:]), "diamond"
            continue
        if mutation == "offset_moved_out":
            wrong = f._replace(offset=f.offset + F(1, 2))
        else:
            wrong = f._replace(normal=-f.normal)
        yield record(facets=facets[:j] + [wrong] + facets[j + 1:]), None


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", sorted(MUTANT_INPUTS))
def test_the_certificate_rejects_a_wrong_record(name, mutation):
    """A hull's record with one facet dropped fails at the diamond check;
    with one offset moved out by 1/2, one normal flipped, or the centroid
    of the vertices added as a vertex, it fails the certificate."""
    pts = MUTANT_INPUTS[name]
    poly = hull(pts)
    oracles.certify_hull(pts, poly)
    wrong_records = list(_wrong_records(poly, mutation))
    assert wrong_records
    for wrong, match in wrong_records:
        with pytest.raises(AssertionError, match=match):
            oracles.certify_hull(pts, wrong)


@pytest.mark.parametrize(
    "visible_on, hidden_on", [(0b0011, 0b1001), (0b101, 0b101)], ids=["ridge_of_the_facets", "bitmask"]
)
def test_plane_across_names_the_points_of_a_plane_through_the_interior_point(visible_on, hidden_on):
    """``x >= 0`` is seen from ``p = (-1, 1)``, point 2, and ``y >= 0`` is
    not; the plane across their ridge is ``x + y >= 0``, through the ridge's
    points (those on both facets: point 0, or points 0 and 2 as given) and
    p, named by one bitmask. Given the origin as the interior point, which
    lies on it, that is an InvariantViolation whose witness is the plane's
    point indices in order; given ``(1, 1)``, the plane comes back with its
    bitmask."""
    on = visible_on & hidden_on | 1 << 2
    visible = ((1, 0), 0, visible_on)
    hidden = ((0, 1), 0, hidden_on)
    with pytest.raises(InvariantViolation, match="interior point on facet plane") as info:
        polytope._plane_across((-1, 1), on, visible, hidden, (0, 0), 1)
    assert info.value.witness == [0, 2]
    assert polytope._plane_across((-1, 1), on, visible, hidden, (1, 1), 1) == ((1, 1), 0, 0b101)


def test_a_polytope_given_wrong_vertices_raises_on_its_first_read(corpus):
    """A polytope built from its vertices, given a vertex list with a vertex
    dropped or an interior point added, raises InvariantViolation on its
    first read of ``facets``, ``affine_span`` or ``dim``, and again on the
    next: it never takes the facets of the hull of its points. Given its
    own vertices in any order, it reads as the hull."""
    cases = [
        (CROSS, P(0, 0)),
        ([P(0, 0, 0), P(3, 0, 0), P(0, 3, 0)], P(1, 1, 0)),
        ([P(0, 0), P(F(1, 2), F(1, 2))], P(F(1, 4), F(1, 4))),
    ]
    np_ = next(np_ for np_ in _audit_inputs(corpus) if np_.r == 2)
    for part in np_.delta_parts + np_.nabla_parts:
        points = part._points
        cases.append((points, reduce(Point.__add__, points).scale(F(1, len(points)))))
    for points, inner in cases:
        good = hull(points)
        assert inner not in good.vertices and good.contains(inner)
        for vertices in (good.vertices[1:], good.vertices[:-1], good.vertices + (inner,)):
            for attr in ("facets", "affine_span", "dim"):
                bad = Polytope._from_vertices(vertices, points)
                for _ in range(2):
                    with pytest.raises(InvariantViolation):
                        getattr(bad, attr)
        same = Polytope._from_vertices(good.vertices[::-1], points)
        assert hull_record(same) == hull_record(good)


@settings(max_examples=200, deadline=None)
@given(simplex_point_sets())
def test_a_simplex_skips_insertion_and_a_full_one_eliminates_once(pts):
    """No simplex reaches the insertion; one that spans the space costs
    one elimination, the one that finds the span."""
    ncols = []

    def counted(mat, n):
        ncols.append(n)
        return eliminate(mat, n)

    def insertion(*args):
        raise AssertionError("a simplex reached the insertion")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "eliminate", counted)
        mp.setattr(polytope, "_insert_points", insertion)
        poly = hull(pts)
    assert poly.vertices == tuple(sorted(pts))
    assert len(poly.facets) == (len(pts) if len(pts) > 1 else 0)
    if poly.is_full_dimensional:
        assert ncols == [len(pts) - 1]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), max_size=6),
            st.lists(st.integers(-2, 2), min_size=36, max_size=36),
        )
    )
)
def test_span_basis_is_the_canonical_nullspace_basis(case):
    """Any basis of the nullspace of A, recombined, reduces to the basis
    integer_nullspace gives for A."""
    d, rows, mix = case
    expected = sorted(integer_nullspace([list(r) for r in rows], d))
    # an invertible (unitriangular) recombination of the expected basis
    n = len(expected)
    combined = [
        [
            x + sum(mix[(6 * i + j) % 36] * other[c] for j, other in enumerate(expected[i + 1:]))
            for c, x in enumerate(vec)
        ]
        for i, vec in enumerate(expected)
    ]
    assert polytope._span_basis(combined[::-1], d) == expected
    assert n == d - len(eliminate([list(r) for r in rows], d)[0])


# The polar built from its vertices, with its span and facets from a hull
# on first read, against the former polar read off the facet-vertex
# incidence, kept in tests/oracles.py.


def assert_polar_matches_the_hull_polar(poly):
    """The polar and its polar equal the incidence route's: vertices, facet
    normals, offsets and incidences, and the (empty) affine span, read
    first here."""
    fresh = hull(list(poly.vertices))
    new = fresh.polar_dual()
    old = oracles.incidence_polar(fresh)
    assert new._affine_span is None and new._facets is None
    assert hull_record(new) == hull_record(old)
    assert hull_record(new.polar_dual()) == hull_record(oracles.incidence_polar(old))
    assert new.polar_dual() == fresh


@st.composite
def polytopes_around_the_origin(draw):
    """Polytopes in dims 1..5 with the origin strictly inside: the points
    ±c_i e_i (c_i > 0) plus up to d + 3 more, with integer or p/q
    coordinates."""
    d = draw(st.integers(1, 5))
    q = draw(st.sampled_from([1, 1, 2, 3]))
    pts = []
    for i in range(d):
        for sign in (1, -1):
            unit = [0] * d
            unit[i] = sign * F(draw(st.integers(1, 3)), q)
            pts.append(Point(unit))
    extra = st.lists(st.builds(F, st.integers(-4, 4), st.just(q)), min_size=d, max_size=d)
    pts += [Point(c) for c in draw(st.lists(extra, max_size=d + 3))]
    return hull(pts)


@settings(max_examples=150, deadline=None)
@given(polytopes_around_the_origin())
def test_polar_matches_the_hull_polar_on_random_polytopes(poly):
    assert_polar_matches_the_hull_polar(poly)


NON_SIMPLICIAL = {
    "cube": [P(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octahedron_x_segment": [
        P(*(s if j == i else 0 for j in range(3)), t)
        for i in range(3) for s in (1, -1) for t in (1, -1)
    ],
    # a sheared box with unequal offsets: the polar vertices sort in
    # another order than the facet normals
    "sheared_box": [P(x + y, y, z) for x in (-1, 2) for y in (-1, 1) for z in (F(-1, 2), 1)],
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL))
def test_polar_matches_the_hull_polar_on_non_simplicial_bases(name):
    assert_polar_matches_the_hull_polar(hull(NON_SIMPLICIAL[name]))


def test_polar_matches_the_hull_polar_on_the_corpus(corpus):
    for entry in corpus:
        assert_polar_matches_the_hull_polar(entry.polytope)


def test_polar_builds_no_hull(count_hulls):
    """The polar's vertices take no hull; its own polar takes one, the
    first read of the polar's facets."""
    for pts in (CROSS, TRIANGLE, *NON_SIMPLICIAL.values()):
        poly = hull(pts)
        assert count_hulls(poly.polar_dual) == 0
        assert count_hulls(poly.polar_dual().polar_dual) == 1


# The test that a Minkowski sum is a polar, decided on the base's vertices
# and facets, against the hull of the sum. Each case names the polar; the
# decider is given the base, the polar's own polar.


def square(a):
    return hull([P(x, y) for x in (-a, a) for y in (-a, a)])


def segment(*ends):
    return hull([P(*e) for e in ends])


def is_polar_sum(polar, summands):
    """Whether the sum of ``summands`` is ``polar``, decided on the base
    whose polar it is, with a pairing table of its own."""
    return _is_polar_sum(polar.polar_dual(), summands, _Pairings())


def assert_sum_test_matches_the_hull(poly, summands, expected):
    assert (reduce(minkowski_sum, summands) == poly) is expected
    assert is_polar_sum(poly, summands) is expected


def test_sum_test_accepts_true_sums():
    assert_sum_test_matches_the_hull(
        square(1), [segment((-1, 0), (1, 0)), segment((0, -1), (0, 1))], True
    )
    cube = hull(NON_SIMPLICIAL["cube"])
    box = hull([P(0, y, z) for y in (-1, 1) for z in (-1, 1)])
    assert_sum_test_matches_the_hull(cube, [segment((-1, 0, 0), (1, 0, 0)), box], True)
    half = F(1, 2)
    assert_sum_test_matches_the_hull(
        square(1), [square(half), square(half), hull([P(0, 0)])], True
    )


def test_sum_test_rejects_a_sum_strictly_inside():
    half = F(1, 2)
    parts = [segment((-half, 0), (half, 0)), segment((0, -half), (0, half))]
    assert_sum_test_matches_the_hull(square(1), parts, False)


def test_sum_test_rejects_a_sum_out_of_one_facet():
    """The sum sticks out of the facet y <= 1 by 1/3 in the middle, and
    every vertex of the square is still where its l_F is smallest: only the
    step on the base's vertices catches it."""
    bump = hull([P(x, y) for x in (-1, 1) for y in (-1, 1)] + [P(0, F(4, 3))])
    assert_sum_test_matches_the_hull(square(1), [bump, hull([P(0, 0)])], False)
    assert_sum_test_matches_the_hull(square(1), [bump], False)


def test_sum_test_rejects_a_sum_that_touches_every_facet_but_misses_a_vertex():
    """The pentagon reaches all four sides of the square but not (1, 1):
    only the step on the base's facets, with l_F = (-1, -1), catches it."""
    pentagon = hull([P(-1, -1), P(1, -1), P(1, 0), P(0, 1), P(-1, 1)])
    assert_sum_test_matches_the_hull(square(1), [pentagon], False)
    half = F(1, 2)
    halves = hull([P(-half, -half), P(half, -half), P(half, 0), P(0, half), P(-half, half)])
    assert_sum_test_matches_the_hull(square(1), [halves, halves], False)


def test_sum_test_rejects_summands_from_another_space():
    cross = hull([N(1, 0), N(0, 1), N(-1, 0), N(0, -1)])
    assert not is_polar_sum(square(1), [cross])
    assert not is_polar_sum(square(1), [hull([P(0, 0, 0)])])


small_sets = st.lists(
    st.tuples(*[st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2]))] * 2),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_sets, min_size=1, max_size=3), small_sets)
def test_sum_test_matches_the_hull_of_the_sum_on_random_summands(raw_parts, raw_extra):
    """On the hull of the sum itself, and on that hull with a vertex
    dropped or with points added. Each is moved, with the first summand,
    by its vertices' centroid, which puts the origin inside it and changes
    no answer: the moved one is the polar of a base."""
    parts = [hull([Point(c) for c in raw]) for raw in raw_parts]
    total = reduce(minkowski_sum, parts)
    if not total.is_full_dimensional:
        return
    verts = list(total.vertices)
    for other in (
        total,
        hull(verts[1:] + [Point(c) for c in raw_extra]),
        hull(verts + [Point(c) for c in raw_extra]),
    ):
        if other.is_full_dimensional:
            centre = reduce(Point.__add__, other.vertices).scale(F(1, len(other.vertices)))
            moved = [hull([v - centre for v in q.vertices]) for q in (other, parts[0])]
            assert is_polar_sum(moved[0], [moved[1], *parts[1:]]) is (other == total)
