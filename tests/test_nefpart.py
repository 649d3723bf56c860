"""Nef-partition validation, the pairing relations, and enumeration."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from nefdual.errors import InvariantViolation, NotReflexive
from nefdual.nefpart import (
    EMPTY_PART,
    NOT_COVERING,
    NOT_DISJOINT,
    NOT_INTEGRAL,
    NOT_PIECEWISE_LINEAR,
    NefPartition,
    Rejection,
    _intersection_is_origin,
    check_relations,
    enumerate_nef_partitions,
    validate_partition,
)
from nefdual.polytope import Point, SPACE_N, hull, pair

from oracles import intersection_is_origin, oracle_nef_partitions

F = Fraction


def P(*coords):
    return Point(coords)


def N(*coords):
    return Point(coords, SPACE_N)


CROSS = hull([P(1, 0), P(0, 1), P(-1, 0), P(0, -1)])
SQUARE = hull([P(1, 1), P(1, -1), P(-1, 1), P(-1, -1)])
CUBE = hull([P(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
OCTA = hull([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(-1, 0, 0), P(0, -1, 0), P(0, 0, -1)])


def part_of(base, *coord_tuples):
    return frozenset(base.vertex_index(P(*c)) for c in coord_tuples)


def test_axis_bipartition_of_cross_is_valid():
    np_ = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (-1, 0)), part_of(CROSS, (0, 1), (0, -1))]
    )
    assert isinstance(np_, NefPartition)
    assert np_.nabla_parts[0] == hull([N(-1, 0), N(1, 0)])
    assert np_.nabla_parts[1] == hull([N(0, -1), N(0, 1)])


def test_diagonal_bipartition_of_cross_is_valid():
    np_ = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (0, 1)), part_of(CROSS, (-1, 0), (0, -1))]
    )
    assert isinstance(np_, NefPartition)
    assert np_.nabla_parts[0] == hull([N(-1, -1), N(-1, 0), N(0, -1), N(0, 0)])
    assert np_.nabla_parts[1] == hull([N(0, 0), N(1, 0), N(0, 1), N(1, 1)])


def test_square_corner_split_is_rejected_not_integral():
    out = validate_partition(
        SQUARE,
        [part_of(SQUARE, (1, 1)), part_of(SQUARE, (1, -1), (-1, 1), (-1, -1))],
    )
    assert isinstance(out, Rejection)
    assert out.reason == NOT_INTEGRAL
    assert out.part == 0


def test_single_part_gives_polar_as_nabla(corpus):
    for entry in corpus:
        if not entry.reflexive:
            continue
        poly = entry.polytope
        np_ = validate_partition(poly, [range(len(poly.vertices))])
        assert isinstance(np_, NefPartition)
        assert np_.nabla_parts[0] == poly.polar_dual()


def test_delta_parts_examples():
    axis = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (-1, 0)), part_of(CROSS, (0, 1), (0, -1))]
    )
    assert axis.delta_parts[0] == hull([P(-1, 0), P(1, 0)])

    octa = validate_partition(
        OCTA,
        [part_of(OCTA, (1, 0, 0)),
         part_of(OCTA, (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))],
    )
    assert octa.delta_parts[0] == hull([P(0, 0, 0), P(1, 0, 0)])
    # 0 is a genuine vertex of this delta part
    assert P(0, 0, 0) in octa.delta_parts[0].vertices

    diag = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (0, 1)), part_of(CROSS, (-1, 0), (0, -1))]
    )
    assert diag.delta_parts[0] == hull([P(0, 0), P(1, 0), P(0, 1)])


def test_octahedron_nabla_parts():
    np_ = validate_partition(
        OCTA,
        [part_of(OCTA, (1, 0, 0)),
         part_of(OCTA, (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))],
    )
    assert np_.nabla_parts[0] == hull([N(0, 0, 0), N(-1, 0, 0)])
    box = hull([N(x, y, z) for x in (0, 1) for y in (-1, 1) for z in (-1, 1)])
    assert np_.nabla_parts[1] == box


def test_relations_axis_matrix():
    np_ = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (-1, 0)), part_of(CROSS, (0, 1), (0, -1))]
    )
    report = check_relations(np_)
    assert report.matrix == ((F(-1), F(0)), (F(0), F(-1)))
    assert report.passed and report.phi_consistent
    assert bool(report)


def test_relations_single_part_matrix():
    np_ = validate_partition(CROSS, [range(4)])
    assert check_relations(np_).matrix == ((F(-1),),)


def test_relations_octahedron_attained_pair():
    np_ = validate_partition(
        OCTA,
        [part_of(OCTA, (1, 0, 0)),
         part_of(OCTA, (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))],
    )
    report = check_relations(np_)
    assert report.matrix[0][0] == -1
    assert pair(P(1, 0, 0), N(-1, 0, 0)) == -1
    assert P(1, 0, 0) in np_.delta_parts[0].vertices
    assert N(-1, 0, 0) in np_.nabla_parts[0].vertices


def test_structural_rejections():
    empty = validate_partition(CROSS, [range(4), []])
    assert empty == Rejection(EMPTY_PART, part=1)

    overlap = validate_partition(CROSS, [{0, 1}, {1, 2, 3}])
    assert overlap.reason == NOT_DISJOINT
    assert overlap.part == 1 and overlap.vertex == 1
    assert "part 0" in overlap.detail

    missing = validate_partition(CROSS, [{0, 1}, {2}])
    assert missing == Rejection(NOT_COVERING, vertex=3)


def test_rejection_is_stable_under_revalidation():
    first = validate_partition(SQUARE, [{3}, {0, 1, 2}])
    second = validate_partition(SQUARE, [{3}, {0, 1, 2}])
    assert first == second
    assert str(first) == str(second)


def test_not_piecewise_linear_rejection_on_cube():
    out = validate_partition(CUBE, [{7}, set(range(7))])
    assert isinstance(out, Rejection)
    assert out.reason == NOT_PIECEWISE_LINEAR
    assert out.cone is not None


def test_validate_raises_on_non_reflexive():
    big = hull([P(2, 2), P(2, -2), P(-2, 2), P(-2, -2)])
    with pytest.raises(NotReflexive):
        validate_partition(big, [range(4)])


def test_validate_raises_on_bad_index():
    with pytest.raises(IndexError):
        validate_partition(CROSS, [{0, 9}, {1, 2, 3}])


def test_enumerate_single_part():
    found = enumerate_nef_partitions(CROSS, 1)
    assert len(found) == 1
    assert found[0].parts == (frozenset(range(4)),)


def test_enumerate_cross_r2_matches_oracle():
    found = enumerate_nef_partitions(CROSS, 2)
    got = {np_.unlabeled() for np_ in found}
    expected = oracle_nef_partitions([v.coords for v in CROSS.vertices], 2, 2)
    assert got == expected
    assert len(found) == 7


def test_enumerate_square_r2_is_empty():
    assert enumerate_nef_partitions(SQUARE, 2) == []
    assert oracle_nef_partitions([v.coords for v in SQUARE.vertices], 2, 2) == set()


def test_enumerate_octahedron_r2_matches_oracle():
    found = enumerate_nef_partitions(OCTA, 2)
    got = {np_.unlabeled() for np_ in found}
    expected = oracle_nef_partitions([v.coords for v in OCTA.vertices], 3, 2)
    assert got == expected
    assert len(found) == 31


def test_enumerate_is_deterministic_on_cold_and_warm_caches():
    octa = hull([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(-1, 0, 0), P(0, -1, 0), P(0, 0, -1)])
    cold = enumerate_nef_partitions(octa, 2)  # builds the fan and polar of octa
    warm = enumerate_nef_partitions(octa, 2)  # reuses them
    assert len(cold) == 31
    assert [np_.canonical_parts() for np_ in cold] == [
        np_.canonical_parts() for np_ in warm
    ]
    assert all(a.nabla_parts == b.nabla_parts for a, b in zip(cold, warm))
    assert all(np_.fan is cold[0].fan for np_ in cold + warm)  # one fan for all


def test_enumerate_output_order_is_canonical():
    found = enumerate_nef_partitions(CROSS, 2)
    keys = [np_.canonical_parts() for np_ in found]
    assert keys == sorted(keys)


def test_enumerate_rejects_non_reflexive():
    big = hull([P(2, 2), P(2, -2), P(-2, 2), P(-2, -2)])
    with pytest.raises(NotReflexive):
        enumerate_nef_partitions(big, 2)


def test_opposite_rays_meet_only_at_the_origin():
    right = hull([P(0, 0), P(2, 0)])
    left = hull([P(0, 0), P(-1, 0)])
    assert _intersection_is_origin(right, left) == (True, None)


def test_intersection_test_needs_the_origin_in_both():
    with pytest.raises(InvariantViolation):
        _intersection_is_origin(hull([P(1, 0), P(2, 0)]), hull([P(0, 0), P(1, 1)]))


def test_overlapping_triangles_meet_beyond_the_origin():
    a = hull([P(0, 0), P(2, 0), P(0, 2)])
    b = hull([P(0, 0), P(2, 1), P(1, 2)])
    ok, witness = _intersection_is_origin(a, b)
    assert not ok
    assert not witness.is_zero() and a.contains(witness) and b.contains(witness)
    assert intersection_is_origin(a, b)[0] is False


def _neg(v):
    return tuple(-c for c in v)


@st.composite
def polytope_pairs_through_origin(draw):
    """Two polytopes of Q^d containing the origin, d in 1..5.

    Each is the hull of 0 and a few lattice or p/q points, so it may be
    lower-dimensional. The origin is left where it falls (often a vertex),
    put on a face (the negative of a point is added), or made interior (a
    simplex around it is added). Half the pairs are pushed to the two closed
    sides of a hyperplane through 0, so that many meet only at 0 or touch
    only within that hyperplane. Few points in high dimension keep the
    brute-force oracle, which solves every d-subset of the constraints, fast.
    """
    d = draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    vec = st.lists(entry, min_size=d, max_size=d).map(tuple)
    w = draw(vec) if draw(st.booleans()) else None

    def part(sign):
        pts = draw(st.lists(vec, min_size=1, max_size=max(1, 4 - d)))
        if w is not None:
            pts = [p if sign * sum(a * b for a, b in zip(p, w)) >= 0 else _neg(p) for p in pts]
        where = draw(st.sampled_from(["as drawn", "face", "interior"]))
        if where == "face" and pts:
            pts.append(_neg(pts[0]))
        if where == "interior":
            pts += [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
        return hull([Point((0,) * d)] + [Point(p) for p in pts])

    return part(1), part(-1)


@settings(max_examples=100, deadline=None)
@given(polytope_pairs_through_origin())
def test_dual_cone_test_matches_the_vertex_search(pair_):
    p, q = pair_
    constraints = sum(len(x.facets) + len(x.affine_span) for x in pair_)
    assume(comb(constraints, p.ambient_dim) <= 1000)
    ok, witness = _intersection_is_origin(p, q)
    assert ok == intersection_is_origin(p, q)[0]
    if ok:
        assert witness is None
    else:
        assert not witness.is_zero()
        assert p.contains(witness) and q.contains(witness)
