"""Nef-partition validation, the pairing relations, and enumeration."""

import itertools
import operator
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

import nefdual
import nefdual.fan as fan
import nefdual.nefpart as nefpart
import oracles
from nefdual import linalg, polytope
from nefdual.duality import (
    dual_nef_partition,
    verify_nabla_polar_is_delta_sum,
    verify_polar_is_nabla_sum,
)
from nefdual.errors import DimensionMismatch, InvariantViolation, NotPiecewiseLinear, NotReflexive
from nefdual.nefpart import (
    EMPTY_PART,
    NOT_CONVEX,
    NOT_COVERING,
    NOT_DISJOINT,
    NOT_INTEGRAL,
    NOT_PIECEWISE_LINEAR,
    NefPartition,
    Rejection,
    _check_pairable,
    _Pairings,
    _pairing_mismatch,
    check_relations,
    enumerate_nef_partitions,
    validate_partition,
)
from nefdual.polytope import Point, SPACE_M, SPACE_N, hull, pair

from oracles import _set_partitions
from oracles import oracle_nef_partitions

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
    return frozenset(base.vertices.index(P(*c)) for c in coord_tuples)


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


@pytest.mark.parametrize(
    "call, arg",
    [
        (validate_partition, [[0.9, 1], [2, 3]]),
        (validate_partition, [[F(7, 2), 1], [2, 0]]),
        (validate_partition, [["3", 1], [2, 0]]),
        (validate_partition, [[F(2), 1], [0, 3]]),
        (enumerate_nef_partitions, 2.5),
        (enumerate_nef_partitions, 2.0),
    ],
    ids=["float", "Fraction", "str", "integral Fraction", "float r", "integral float r"],
)
def test_validate_refuses_indices_that_are_not_integers(call, arg):
    """A float, Fraction or str index, or a float number of parts, is a
    TypeError, never truncated or parsed into another partition or count."""
    with pytest.raises(TypeError):
        call(CROSS, arg)


def test_validate_accepts_integer_like_indices():
    class Idx:
        def __init__(self, i):
            self.i = i

        def __index__(self):
            return self.i

    axis = validate_partition(CROSS, [[2, 3], [0, 1]])
    assert validate_partition(CROSS, [[Idx(2), True + 2], (Idx(0), True)]) == axis


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


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


# The 4D inputs: the three of the enum4d benchmark workload, the 4D
# cross-polytope (every set partition is nef) and the 4-cube (none is).
FOUR_D = {
    "simplex4": [_unit(4, i) for i in range(4)] + [(-1,) * 4],
    "octahedron_x_segment": [
        p + (t,) for p in [_unit(3, i, s) for i in range(3) for s in (1, -1)] for t in (1, -1)
    ],
    "triangle_x_triangle": [p + q for p in [(1, 0), (0, 1), (-1, -1)] for q in [(1, 0), (0, 1), (-1, -1)]],
    "cross4": [_unit(4, i, s) for i in range(4) for s in (1, -1)],
    "cube4": list(itertools.product((1, -1), repeat=4)),
}
SIMPLEX5 = [_unit(5, i) for i in range(5)] + [(-1,) * 5]


def _fresh(coords, shear=False):
    """A newly built polytope, so no cache is shared with another route.

    ``shear`` applies x_0 += x_1, a lattice automorphism that changes the
    canonical vertex order.
    """
    if shear:
        coords = [(c[0] + c[1],) + tuple(c[1:]) for c in coords]
    return hull([Point(c) for c in coords])


def _coords(delta):
    """The integer coordinates of a lattice polytope's vertices, in its
    vertex order: the input of the definition's deciders in tests/oracles.py."""
    return [v._num for v in delta.vertices]


def _phi_functionals(np_):
    return tuple(tuple(u.coords for u in f.functionals) for f in np_.phi)


def _decided(res):
    """A Rejection as it is, or a NefPartition's φ functionals."""
    return res if isinstance(res, Rejection) else _phi_functionals(res)


# The enumeration against the definition (oracles.nef_partitions): the set
# partitions whose blocks are all nef, each block decided by
# oracles.nef_verdict on the vertices' coordinates alone. The larger inputs
# and their counts are those of bench/scale.py.


def assert_enumeration_is_the_definitions(delta, r):
    """``enumerate_nef_partitions(delta, r)`` gives the definition's
    partitions: the parts with their labels, in order, and every φ's
    functionals. Returns what it found."""
    found = enumerate_nef_partitions(delta, r)
    expected = oracles.nef_partitions(_coords(delta), delta.ambient_dim, r)
    assert [np_.parts for np_ in found] == [parts for parts, _ in expected]
    # Both sides keep one φ per vertex subset, so each pair is compared once.
    pairs = {}
    for np_, (_, phis) in zip(found, expected):
        assert len(np_.phi) == len(phis)
        for f, phi in zip(np_.phi, phis):
            pairs[id(f), id(phi)] = f, phi
    for f, phi in pairs.values():
        assert tuple(u.coords for u in f.functionals) == phi
    return found


def _enumeration_record(found, facets=True):
    """Everything a partition holds: its parts with their labels, each φ's
    values, functionals and convexity record, and each part polytope's
    vertices, with span and facets read through the properties if asked."""
    def poly(p):
        return _polytope_record(p) if facets else (p.space, p.ambient_dim, p.vertices)

    return [
        (
            np_.delta, np_.parts, np_.fan,
            [(f.vertex_values, f.functionals, f.is_convex, f.is_integral,
              f.first_convexity_violation()) for f in np_.phi],
            [poly(p) for p in np_.delta_parts + np_.nabla_parts],
        )
        for np_ in found
    ]


def _validated(found):
    """Each partition of ``found`` validated from its parts on one newly
    built polytope, which shares no cache with the enumeration."""
    base = _fresh(_coords(found[0].delta)) if found else None
    return [validate_partition(base, np_.parts) for np_ in found]


def test_the_enumeration_is_the_definitions_on_the_corpus(corpus):
    """Every reflexive corpus polytope at r = 1..3, the segment included:
    its two cones each close at a single vertex, one of them at vertex 0.
    Each partition found is also what validation builds from its parts:
    φ with its verdicts, and each part's vertices, span and facets."""
    names = set()
    for entry in corpus:
        if not entry.reflexive:
            continue
        names.add(entry.name)
        coords = [v.coords for v in entry.polytope.vertices]
        for r in (1, 2, 3):
            found = assert_enumeration_is_the_definitions(_fresh(coords), r)
            assert _enumeration_record(found) == _enumeration_record(_validated(found))
    assert "segment" in names


@pytest.mark.parametrize(
    "name,r,shear",
    [(name, 2, shear) for name in ("simplex4", "octahedron_x_segment", "triangle_x_triangle")
     for shear in (False, True)]
    + [("cross4", 2, False), ("cube4", 2, False)],
)
def test_the_enumeration_is_the_definitions_in_4d(name, r, shear):
    found = assert_enumeration_is_the_definitions(_fresh(FOUR_D[name], shear), r)
    assert found == _validated(found)


def test_the_definition_calls_none_of_the_librarys_routes(corpus, monkeypatch):
    """On every reflexive corpus polytope at r = 2, ``oracles.nef_partitions``
    gives the library's enumeration and ``oracles.nef_verdict`` its verdict
    on every set partition, both computed first, with their caches emptied
    and hull, face_fan, FaceFan's reads, validate_partition,
    enumerate_nef_partitions, pl_from_vertex_values and linalg's eliminate
    and solve all made to raise."""
    cases = []
    for entry in corpus:
        if entry.reflexive:
            delta = _fresh([v.coords for v in entry.polytope.vertices])
            found = [(np_.parts, _phi_functionals(np_)) for np_ in enumerate_nef_partitions(delta, 2)]
            cands = list(_set_partitions(len(delta.vertices), 2))
            verdicts = [_decided(validate_partition(delta, cand)) for cand in cands]
            cases.append((_coords(delta), delta.ambient_dim, found, cands, verdicts))

    def refused(*args, **kwargs):
        raise AssertionError("the definition called the library")

    originals = (
        polytope.hull, fan.face_fan, nefpart.validate_partition, nefpart.enumerate_nef_partitions,
        fan.pl_from_vertex_values, linalg.eliminate, linalg.solve,
    )
    for name, module in list(sys.modules.items()):
        if name == "oracles" or name == "nefdual" or name.startswith("nefdual."):
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, refused)
    for method in ("entry", "_read", "_weighted_read", "cone_functional", "_kernel"):
        monkeypatch.setattr(fan.FaceFan, method, refused)
    oracles._cones.cache_clear()
    oracles._cone_functionals.cache_clear()
    with pytest.raises(AssertionError, match="called the library"):
        enumerate_nef_partitions(_fresh(FOUR_D["simplex4"]), 2)
    for vertices, dim, found, cands, verdicts in cases:
        assert oracles.nef_partitions(vertices, dim, 2) == found
        assert [oracles.nef_verdict(vertices, cand, dim) for cand in cands] == verdicts
    assert len(cases) == 11


@pytest.mark.parametrize(
    "name,r,expected",
    [
        ("octahedron_x_segment", 2, 0),
        ("cube4", 2, 0),
        ("hexagon", 3, 90),
        ("cross2d", 2, 7),
        ("octahedron", 2, 31),
        ("octahedron", 3, 90),
        ("cross4", 2, 127),
    ],
)
def test_search_validates_only_candidates_no_cone_rules_out(
    monkeypatch, corpus_by_name, name, r, expected
):
    """The definition's half counts the reasons over every set partition
    (``oracles.nef_verdict``): ``expected`` candidates have a lattice
    functional for every part on every cone. The enumeration validates no
    candidate: it decides each vertex subset at most once per call, makes
    no weighted read (the masks of the fan's entries decide convexity),
    and builds φ, with the verdict convex, and ∇ᵢ once for each subset
    that is a part of a partition it returns."""
    if name in FOUR_D:
        coords = FOUR_D[name]
    else:
        coords = [v.coords for v in corpus_by_name[name].polytope.vertices]
    reference = _fresh(coords)
    reasons = Counter()
    for cand in _set_partitions(len(reference.vertices), r):
        res = oracles.nef_verdict(_coords(reference), cand, reference.ambient_dim)
        reasons[res.reason if isinstance(res, Rejection) else "accepted"] += 1
    not_cut = sum(n for why, n in reasons.items() if why not in (NOT_PIECEWISE_LINEAR, NOT_INTEGRAL))
    assert not_cut == expected
    if name in ("cross2d", "octahedron", "cross4"):  # cross-polytopes: every candidate is nef
        assert reasons == Counter(accepted=expected)

    validated, weighted, decided, phis, nablas = [], [], Counter(), [], []
    is_nef = nefpart._is_nef
    weighted_read = fan.FaceFan._weighted_read
    support = nefpart.support_polytope

    def deciding(fan_, s):
        decided[s] += 1
        return is_nef(fan_, s)

    def reading(*args):
        weighted.append(args)
        return weighted_read(*args)

    def building_phi(fan_, values, functionals, violation):
        assert violation is None
        phis.append(values)
        return fan.PLFunction(fan_, values, functionals, violation)

    def building_nabla(f):
        nablas.append(f.vertex_values)
        return support(f)

    monkeypatch.setattr(nefpart, "validate_partition", lambda *a: validated.append(a))
    monkeypatch.setattr(nefpart, "_is_nef", deciding)
    monkeypatch.setattr(nefpart, "PLFunction", building_phi)
    monkeypatch.setattr(fan.FaceFan, "_weighted_read", reading)
    monkeypatch.setattr(nefpart, "support_polytope", building_nabla)
    found = enumerate_nef_partitions(_fresh(coords), r)
    assert len(found) == reasons["accepted"]
    assert validated == weighted == []
    assert all(k == 1 for k in decided.values())
    n = len(reference.vertices)
    blocks = {tuple(F(int(v in part)) for v in range(n)) for np_ in found for part in np_.parts}
    assert sorted(phis) == sorted(nablas) == sorted(blocks)
    assert {f.vertex_values for np_ in found for f in np_.phi} == blocks


def test_four_cube_has_no_nef_partitions_at_r2_and_r3():
    """The 4-cube: no nef-partition into 2 or 3 parts, both found in well under 5 s.

    By the definition no proper nonempty subset of its 16 vertices is nef,
    so no set partition into r >= 2 blocks is a nef-partition, where r=3
    alone has about 7.1 million set partitions: the cube4 rows of
    ``test_the_enumeration_is_the_definitions_on_the_scale_inputs`` check
    both counts against ``oracles.nef_partitions``, which finds that. The
    time bound is generous; a search that validated every set partition
    again would miss it by far.
    """
    cube = _fresh(FOUR_D["cube4"])
    started = time.perf_counter()
    found_r2 = enumerate_nef_partitions(cube, 2)
    found_r3 = enumerate_nef_partitions(cube, 3)
    elapsed = time.perf_counter() - started
    assert found_r2 == found_r3 == []
    assert elapsed < 5.0


SCALE_ROWS = [
    (name, r)
    for name in ("cross4", "simplex5", "cross5", "hex+seg+seg", "hex+hex", "cube4")
    for r in (2, 3)
]


@pytest.mark.parametrize("name, r", SCALE_ROWS)
def test_the_enumeration_is_the_definitions_on_the_scale_inputs(scale_bench, name, r):
    """Every row of bench/scale.py, with its count. Each partition found is
    also what validation builds from its parts: φ with its verdicts, and
    each part's vertices (the corpus test reads spans and facets too)."""
    assert sorted(SCALE_ROWS) == sorted(scale_bench.EXPECTED)
    found = assert_enumeration_is_the_definitions(scale_bench.fresh(name), r)
    assert len(found) == scale_bench.EXPECTED[(name, r)]
    assert _enumeration_record(found, facets=False) == _enumeration_record(_validated(found), facets=False)


def test_the_masks_decide_convexity_like_the_scan(corpus):
    """On every 0/1 subset S of the reflexive corpus polytopes and of the
    three enum4d inputs, the mask verdict is the definition's
    (``oracles.nef_verdict``): S is nef exactly when its indicator has a
    functional on every cone, each a lattice point, and the scan pairing
    every vertex with every cone's functional finds none above the
    indicator."""
    bases = [_fresh([v.coords for v in e.polytope.vertices]) for e in corpus if e.reflexive]
    bases += [_fresh(FOUR_D[n]) for n in ("simplex4", "octahedron_x_segment", "triangle_x_triangle")]
    verdicts = Counter()
    for delta in bases:
        face = fan.face_fan(delta)
        n = len(delta.vertices)
        for s in range(1 << n):
            got = oracles.nef_verdict(_coords(delta), [[v for v in range(n) if s >> v & 1]], delta.ambient_dim)
            verdict = got.reason if isinstance(got, Rejection) else "nef"
            assert nefpart._is_nef(face, s) == (verdict == "nef"), (delta, s)
            verdicts[verdict] += 1
    assert verdicts == {"nef": 185, NOT_CONVEX: 35, NOT_INTEGRAL: 66, NOT_PIECEWISE_LINEAR: 4830}


def entry_by_definition(vertices, cone, s, space):
    """The entry (:meth:`FaceFan.entry`) of a cone, given by its vertex
    indices, for the 0/1 pattern of the vertex set ``s`` on it, from the
    definition: ``None`` when no functional takes the pattern on the cone
    (``oracles.pl_extension``), ``False`` when it is not a lattice point,
    and else (u, gt0, gt1) with the vertices where <v, u> > 0 and where
    <v, u> > 1, by ``int`` dot products with the lattice ``vertices``."""
    got = oracles.pl_extension(vertices, [cone], [s >> v & 1 for v in range(len(vertices))])
    if got == 0:
        return None
    (u,), _ = got
    if any(x.denominator != 1 for x in u):
        return False
    dots = [sum(map(mul, v, [int(x) for x in u])) for v in vertices]
    gt0 = sum(1 << v for v, x in enumerate(dots) if x > 0)
    gt1 = sum(1 << v for v, x in enumerate(dots) if x > 1)
    return Point(u, space), gt0, gt1


def test_the_row_sums_give_the_definitions_cone_entries(corpus, scale_bench):
    """On every cone and every 0/1 pattern on its vertices, the fan's entry
    read off the cone table's rows is the definition's
    (:func:`entry_by_definition`), which reads no table, on the cones of
    ``oracles.reflexive_facets`` in their order: every reflexive corpus
    polytope, the three enum4d inputs, and 4D cross, the 4-cube and
    hex⊕hex of bench/scale.py. The cones are read in a seeded shuffled
    order, so each table is exchanged from another parent than in index
    order. Tables with D > 1 and D = 1, and entries with a lattice
    functional, with one off the lattice and with none, all occur."""
    inputs = [[v.coords for v in e.polytope.vertices] for e in corpus if e.reflexive]
    inputs += [FOUR_D[n] for n in ("simplex4", "octahedron_x_segment", "triangle_x_triangle")]
    inputs += [scale_bench.POLYTOPES[n] for n in ("cross4", "cube4", "hex+hex")]
    rng = random.Random(29)
    dets, kinds = set(), Counter()
    for coords in inputs:
        delta = _fresh(coords)
        face = fan.face_fan(delta)
        vertices = _coords(delta)
        defined = [incidence for _, incidence in oracles.reflexive_facets(vertices, delta.ambient_dim)]
        assert [cone.vertex_indices for cone in face.cones] == defined
        cones = list(enumerate(face.cones))
        rng.shuffle(cones)
        for c, cone in cones:
            for bits in itertools.product((0, 1), repeat=len(cone.vertex_indices)):
                s = sum(1 << v for v, b in zip(cone.vertex_indices, bits) if b)
                entry = face.entry(c, s)
                assert entry == entry_by_definition(vertices, defined[c], s, SPACE_N), (coords, c, bits)
                kinds[entry if not entry else "lattice"] += 1
            dets.add(face._kernels[c].det > 1)
    assert dets == {True, False}
    assert set(kinds) == {None, False, "lattice"}


# The inputs of the duality tests here and in tests/test_duality.py.


def _corpus_and_enum4d_inputs(corpus):
    """Every corpus nef-partition at r=1..3 and the enum4d inputs at r=2 as
    they are and sheared."""
    for entry in corpus:
        if entry.reflexive:
            coords = [v.coords for v in entry.polytope.vertices]
            for r in (1, 2, 3):
                yield from enumerate_nef_partitions(_fresh(coords), r)
    for name in ("simplex4", "octahedron_x_segment", "triangle_x_triangle"):
        for shear in (False, True):
            yield from enumerate_nef_partitions(_fresh(FOUR_D[name], shear), 2)


def _audit_inputs(corpus):
    """The inputs of :func:`_corpus_and_enum4d_inputs`, the 5-simplex's two
    cubics and the 4D cross-polytope at r=2."""
    yield from _corpus_and_enum4d_inputs(corpus)
    yield validate_partition(_fresh(SIMPLEX5), [[0, 1, 2], [3, 4, 5]])
    yield from enumerate_nef_partitions(_fresh(FOUR_D["cross4"]), 2)


def test_convexity_is_decided_with_no_scan_at_the_first_violation(monkeypatch, corpus_by_name):
    """On the hexagon at r=3 most set partitions are NotConvex. Validation
    makes no weighted read, the library's one route that decides a PL
    function of arbitrary values, and the rejection is the definition's
    (``oracles.nef_verdict``): the first (vertex, cone) of its scan."""
    reads = []
    weighted_read = fan.FaceFan._weighted_read

    def counting_read(*args):
        reads.append(1)
        return weighted_read(*args)

    monkeypatch.setattr(fan.FaceFan, "_weighted_read", counting_read)
    hexagon = _fresh([v.coords for v in corpus_by_name["hexagon"].polytope.vertices])
    not_convex = 0
    for cand in _set_partitions(len(hexagon.vertices), 3):
        res = validate_partition(hexagon, cand)
        if isinstance(res, Rejection) and res.reason == NOT_CONVEX:
            not_convex += 1
            assert res == oracles.nef_verdict(_coords(hexagon), cand, 2)
    assert not_convex > 0
    assert reads == []


def test_pl_from_vertex_values_decides_convexity_like_the_scan_per_cone(corpus, corpus_by_name):
    """Every PL function that validation by the definition extends on the
    reflexive corpus at r = 1..3 (each part of every set partition in
    turn, up to the first that is not nef), every dual's psi, and every
    function with values in {-1, 0, 1} on the hexagon, extended by the
    library and by ``oracles.pl_extension``, the solve per cone and the
    scan pairing each vertex with every cone's functional: the same
    functionals, and the verdict that ``pl_from_vertex_values`` reads off
    the per-cone masks of its weighted read is the scan's first
    (vertex, cone), or ``None`` with both; or both find the same first cone
    with no functional."""
    verdicts = Counter()

    def checked(delta, values):
        """Whether the function extending ``values`` is integral and convex."""
        face = fan.face_fan(delta)
        vertices = _coords(delta)
        cones = oracles._cones(tuple(vertices), delta.ambient_dim)
        expected = oracles.pl_extension(vertices, cones, values)
        try:
            f = fan.pl_from_vertex_values(face, values)
        except NotPiecewiseLinear as exc:
            assert exc.cone_index == expected
            return False
        got = f.first_convexity_violation()
        assert (tuple(u.coords for u in f.functionals), got) == expected
        assert f.is_convex == (got is None)
        verdicts[got is None] += 1
        return f.is_integral and f.is_convex

    accepted = []
    for entry in corpus:
        if entry.reflexive:
            delta = _fresh([v.coords for v in entry.polytope.vertices])
            n = len(delta.vertices)
            for r in (1, 2, 3):
                for cand in _set_partitions(n, r):
                    if all(checked(delta, [F(int(i in part)) for i in range(n)]) for part in cand):
                        accepted.append(validate_partition(delta, cand))
    assert len(accepted) == 175
    rejected = verdicts[False]
    for np_ in accepted:
        dual = dual_nef_partition(np_)
        for part in dual.parts:
            assert checked(dual.delta, [F(int(i in part)) for i in range(len(dual.delta.vertices))])
    assert verdicts[False] == rejected
    assert verdicts == {True: 984, False: 110}
    # Every function with values in {-1, 0, 1} on the hexagon's vertices,
    # where a cone's functional is often another cone's too.
    hexagon = _fresh([v.coords for v in corpus_by_name["hexagon"].polytope.vertices])
    for values in itertools.product((-1, 0, 1), repeat=len(hexagon.vertices)):
        checked(hexagon, values)
    assert verdicts == {True: 984 + 41, False: 110 + 688}


# Validation on the fan's (cone, pattern) entries against the definition
# (oracles.nef_verdict): each part's indicator extended by one solve per
# cone of oracles.reflexive_facets, its functionals tested for the lattice,
# and the scan pairing every vertex with every cone's functional.


def test_validation_on_the_fan_entries_gives_the_definitions_verdict(corpus):
    """Every set partition of each reflexive corpus polytope at r = 1..3,
    the hexagon at r = 3 among them, and of the three enum4d inputs at
    r = 2: ``validate_partition`` and ``oracles.nef_verdict`` give equal
    Rejections (reason, part, cone and vertex), or a NefPartition whose φ
    functionals are the definition's, each φ convex and integral."""
    cases = [
        ([v.coords for v in e.polytope.vertices], r)
        for e in corpus if e.reflexive for r in (1, 2, 3)
    ]
    assert any(e.name == "hexagon" and e.reflexive for e in corpus)
    cases += [(FOUR_D[n], 2) for n in ("simplex4", "octahedron_x_segment", "triangle_x_triangle")]
    reasons = Counter()
    for coords, r in cases:
        delta = _fresh(coords)
        for cand in _set_partitions(len(delta.vertices), r):
            new = validate_partition(delta, cand)
            assert _decided(new) == oracles.nef_verdict(_coords(delta), cand, delta.ambient_dim), cand
            if isinstance(new, NefPartition):
                assert all(f.is_convex and f.is_integral for f in new.phi)
            reasons["accepted" if isinstance(new, NefPartition) else new.reason] += 1
    assert reasons == {
        "accepted": 190, NOT_CONVEX: 110, NOT_INTEGRAL: 68, NOT_PIECEWISE_LINEAR: 3360
    }


def test_validation_extends_no_function_and_scans_none(monkeypatch, corpus):
    """``validate_partition`` on every set partition of the reflexive
    corpus at r = 1..3, and ``dual_nef_partition`` on every one accepted,
    call no ``pl_from_vertex_values``, ``FaceFan.cone_functional`` or
    weighted read (``FaceFan._weighted_read``), the one route that decides
    a PL function of arbitrary values."""
    calls = Counter()

    def refused(name):
        def call(*args, **kwargs):
            calls[name] += 1
            raise AssertionError(name)
        return call

    for module in (nefdual, fan, nefpart):
        if hasattr(module, "pl_from_vertex_values"):
            monkeypatch.setattr(module, "pl_from_vertex_values", refused("pl_from_vertex_values"))
    monkeypatch.setattr(fan.FaceFan, "cone_functional", refused("cone_functional"))
    monkeypatch.setattr(fan.FaceFan, "_weighted_read", refused("_weighted_read"))
    accepted = 0
    for entry in corpus:
        if entry.reflexive:
            delta = _fresh([v.coords for v in entry.polytope.vertices])
            for r in (1, 2, 3):
                for cand in _set_partitions(len(delta.vertices), r):
                    res = validate_partition(delta, cand)
                    if isinstance(res, NefPartition):
                        dual_nef_partition(res)
                        accepted += 1
    assert accepted == 175
    assert calls == {}


# The relation checks and the sum checks against their deciders in
# tests/oracles.py: the minima by int dot products, and the Minkowski
# identities on the vertices of the polar and the sums of one vertex per
# summand, with no hull of the sum.


def _outcome(check, *args):
    """What a check gives: its result, or the exception with its witness."""
    try:
        return ("returned", check(*args))
    except (DimensionMismatch, InvariantViolation) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))


def test_relation_checks_match_the_definition(corpus):
    count = 0
    for np_ in _corpus_and_enum4d_inputs(corpus):
        for side in (np_, dual_nef_partition(np_)):
            got = check_relations(side)
            assert got == oracles.relation_report(side)
            assert got and got.violations == ()
        count += 1
    # 175 corpus partitions, 15 + 15 on the 4-simplex
    assert count == 205


def test_sum_checks_match_the_deciders_on_both_duality_sides(corpus):
    """Both Minkowski identities give the CheckResult (name, passed,
    witness, detail) of their deciders in tests/oracles.py, on the
    certified hulls of the base's vertices and of the nabla parts'."""
    count = 0
    for np_ in _corpus_and_enum4d_inputs(corpus):
        for side in (np_, dual_nef_partition(np_)):
            deciders = oracles.sum_checks(side)
            for check in (verify_polar_is_nabla_sum, verify_nabla_polar_is_delta_sum):
                got = check(side)
                assert got.passed
                assert got == deciders[got.name]
        count += 1
    assert count == 205


def test_tampered_partitions_fail_the_relation_decider_alike():
    octa = validate_partition(
        OCTA,
        [part_of(OCTA, (1, 0, 0), (-1, 0, 0)),
         part_of(OCTA, (0, 1, 0), (0, -1, 0)),
         part_of(OCTA, (0, 0, 1), (0, 0, -1))],
    )
    cross = validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (0, 1)), part_of(CROSS, (-1, 0), (0, -1))]
    )
    for np_ in (octa, cross):
        swapped = np_._replace(nabla_parts=np_.nabla_parts[::-1])
        report = check_relations(swapped)
        assert report == oracles.relation_report(swapped)
        assert report.violations and not report.passed and not report.phi_consistent
        assert report.matrix != check_relations(np_).matrix

        # rational parts exercise the denominators of the integer forms
        scaled = np_._replace(
            delta_parts=tuple(_scaled(p, F(2, 3)) for p in np_.delta_parts),
            nabla_parts=tuple(_scaled(p, F(1, 2)) for p in np_.nabla_parts),
        )
        report = check_relations(scaled)
        assert report == oracles.relation_report(scaled)
        assert report.violations and report.matrix[0][0] == F(-1, 3)

        # vertices of one part over different denominators
        mixed = np_._replace(
            delta_parts=tuple(
                hull([v.scale(F(1, k + 2)) for k, v in enumerate(p.vertices)])
                for p in np_.delta_parts
            )
        )
        report = check_relations(mixed)
        assert report == oracles.relation_report(mixed)
        assert report.violations

        # a base that is not the one phi lives on
        moved = np_._replace(delta=_scaled(np_.delta, 2))
        report = check_relations(moved)
        assert report == oracles.relation_report(moved)
        assert report.passed and not report.phi_consistent

        # a nabla part grown by a vertex: {-u} is a proper subset of its vertices
        grown = np_._replace(nabla_parts=(_grown(np_.nabla_parts[0]), *np_.nabla_parts[1:]))
        report = check_relations(grown)
        assert report == oracles.relation_report(grown)
        assert not report.phi_consistent

        # parts that do not pair: one from M, one of another dimension
        projected = np_._replace(delta_parts=(_projected(np_.delta_parts[0]), *np_.delta_parts[1:]))
        for bad in (
            np_._replace(nabla_parts=(np_.delta_parts[0], *np_.nabla_parts[1:])),
            projected,
        ):
            assert _outcome(check_relations, bad)[:2] == ("raised", DimensionMismatch)
            assert oracles.relation_report(bad) is None


def _scaled(poly, factor):
    return hull([v.scale(factor) for v in poly.vertices])


def _projected(poly):
    """``poly`` with its last coordinate dropped: one ambient dimension less."""
    return hull([Point(v.coords[:-1], poly.space) for v in poly.vertices])


def _grown(poly):
    """``poly`` with one more vertex that leaves each of its vertices a
    vertex: a point just beyond the centroid of its first facet, or a
    vertex moved off its affine span."""
    if poly.affine_span:
        x = poly.vertices[0]
        steps = [[int(j == k) for j in range(poly.ambient_dim)] for k in range(poly.ambient_dim)]
        p = next(
            q for q in (x + Point(e, poly.space) for e in steps)
            if any(pair(q, eq.normal) != eq.value for eq in poly.affine_span)
        )
    else:
        facet = poly.facets[0]
        ends = [poly.vertices[i] for i in facet.incidence]
        centroid = sum(ends[1:], ends[0]).scale(F(1, len(ends)))
        p = centroid - Point(facet.normal.coords, poly.space).scale(F(1, 100))
    out = hull([*poly.vertices, p])
    assert set(out.vertices) == {*poly.vertices, p}
    return out


# _pairing_mismatch, which reads its minima from a pairing table, against
# the definition: the first vertex v of the base with f(v) != -min <v, y>
# over the part, the minima by the int dot products of tests/oracles.py.
# exact_count counts the checks whose negated functionals are exactly the
# part's vertices, where no vertex of a convex function's base can mismatch.


def _mismatch_by_definition(f, base, part):
    lows = [oracles._low([v], part.vertices) for v in base.vertices]
    return next((vi for vi, low in enumerate(lows) if f.vertex_values[vi] != -low), None)


def _negated_functionals_are_the_vertices(f, base, part):
    return (
        f.is_convex
        and f.fan.base == base
        and {-u for u in f.functionals} == set(part.vertices)
    )


def pairing_checks(np_, dual=None):
    """Every (PL function, base, part) that check_relations tests on ``np_``
    and its ``dual``: (phi_i, delta, nabla part i) on each side. Pairs that
    do not pair are left out."""
    for side in (np_, dual) if dual is not None else (np_,):
        for i, f in enumerate(side.phi):
            try:
                _check_pairable(side.delta, side.nabla_parts[i])
            except DimensionMismatch:
                continue
            yield f, side.delta, side.nabla_parts[i]


def exact_count(checks):
    """Assert that _pairing_mismatch finds the definition's mismatch on
    each of ``checks``; return on how many the negated functionals are
    exactly the part's vertices."""
    exact = 0
    for f, base, part in checks:
        assert _pairing_mismatch(f, base, part, _Pairings()) == _mismatch_by_definition(f, base, part)
        exact += _negated_functionals_are_the_vertices(f, base, part)
    return exact


def test_the_pairing_mismatch_matches_the_definition(corpus):
    total = exact = 0
    for np_ in _audit_inputs(corpus):
        checks = list(pairing_checks(np_, dual_nef_partition(np_)))
        total += len(checks)
        exact += exact_count(checks)
    # 2 checks per part of the 333 partitions, on each of which the negated
    # functionals are exactly the part's vertices
    assert (exact, total) == (1520, 1520)


def test_a_non_convex_function_mismatches_where_the_definition_says(corpus_by_name):
    """A non-convex PL function whose negated functionals are exactly a
    polytope's vertices exceeds its value somewhere, where the pairing
    with that polytope finds the maximum of its functionals: a mismatch,
    at the vertex the definition names."""
    hexagon = _fresh([v.coords for v in corpus_by_name["hexagon"].polytope.vertices])
    found = 0
    for cand in _set_partitions(len(hexagon.vertices), 3):
        res = validate_partition(hexagon, cand)
        if not (isinstance(res, Rejection) and res.reason == NOT_CONVEX):
            continue
        values = [int(i in cand[res.part]) for i in range(len(hexagon.vertices))]
        f = fan.pl_from_vertex_values(fan.face_fan(hexagon), values)
        negated = {-u for u in f.functionals}
        part = hull(list(negated))
        if set(part.vertices) != negated:
            continue
        vi = _pairing_mismatch(f, hexagon, part, _Pairings())
        assert vi is not None and vi == _mismatch_by_definition(f, hexagon, part)
        found += 1
    assert found > 0


# The pairing table's minima against minima of polytope.pair, on vertex
# tuples with mixed denominators. A duality of a reflexive polytope pairs
# only lattice tuples, so the table's exact path for a non-lattice side is
# reached here: with one side lattice and with neither.


@st.composite
def pairing_sides(draw, lattice):
    """A hull in M and a tuple of distinct points of N, of one dimension,
    with the hull's vertices and the tuple lattice as the pair of flags
    ``lattice`` says."""
    d = draw(st.integers(1, 3))

    def points(space, is_lattice):
        num = st.integers(-5, 5)
        entry = num if is_lattice else st.builds(F, num, st.integers(1, 4))
        vec = st.lists(entry, min_size=d, max_size=d).map(tuple)
        return [Point(p, space) for p in draw(st.lists(vec, min_size=1, max_size=6, unique=True))]

    base = hull(points(SPACE_M, lattice[0]))
    ys = tuple(points(SPACE_N, lattice[1]))
    assume(base.is_lattice() == lattice[0])
    assume(all(y.is_lattice() for y in ys) == lattice[1])
    return base, ys


@pytest.mark.parametrize(
    "lattice", [(True, False), (False, True), (False, False), (True, True)],
    ids=["lattice-rational", "rational-lattice", "rational-rational", "lattice-lattice"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_table_minima_are_the_minima_of_pair(lattice, data):
    """``lows`` in both directions and ``facet_lows`` give the exact minima
    of ``pair``, ``int``s when both tuples are lattice and ``Fraction``s
    otherwise; ``facet_lows`` gives the one point reaching a minimum with
    its pairings, or ``None`` on a tie."""
    base, ys = data.draw(pairing_sides(lattice))
    xs = base.vertices
    kind = int if all(lattice) else Fraction
    table = _Pairings()
    lows = table.lows(xs, ys)
    assert lows == tuple(min(pair(x, y) for y in ys) for x in xs)
    assert {type(m) for m in lows} == {kind}
    assert table.lows(ys, xs) == tuple(min(pair(x, y) for x in xs) for y in ys)
    answers = table.facet_lows(base, ys)
    assert len(answers) == len(base.facets)
    for f, (m, q, pairings) in zip(base.facets, answers):
        sums = [sum(pair(xs[i], y) for i in f.incidence) for y in ys]
        assert m == min(sums) and type(m) is kind
        if sums.count(m) == 1:
            assert q == ys[sums.index(m)]
            assert pairings == tuple(pair(v, q) for v in xs)
            assert {type(e) for e in pairings} == {kind}
        else:
            assert q is None and pairings is None


# The parts built from their vertices against the definition: each delta
# part Δᵢ is certified (oracles.certify_hull) as the hull of the origin and
# part i's vertices, and each nabla part ∇ᵢ as the hull of the negated
# functionals of φᵢ, which tests/oracles.py solves on every cone. Each
# part's span and facets are read through the properties that build them
# on first read.


def _polytope_record(poly):
    return (poly.space, poly.ambient_dim, poly.vertices, poly.affine_span, poly.facets)


def _assert_parts_are_certified(np_):
    """The parts of ``np_`` are the certified hulls of their definitions,
    with φ's functionals the oracle's; returns how many delta parts lack
    the origin."""
    zero = Point((0,) * np_.delta.ambient_dim, np_.delta.space)
    functionals = oracles._functionals(np_.delta, np_.parts)
    assert tuple(f.functionals for f in np_.phi) == functionals, np_
    for part, delta_part, us, nabla_part in zip(np_.parts, np_.delta_parts, functionals, np_.nabla_parts):
        oracles.certify_hull([zero] + [np_.delta.vertices[i] for i in part], delta_part)
        oracles.certify_hull([-u for u in us], nabla_part)
    return sum(not any(v.is_zero() for v in p.vertices) for p in np_.delta_parts)


def test_parts_built_from_their_vertices_are_certified_on_the_audit_inputs(corpus):
    count = without_origin = 0
    for np_ in _audit_inputs(corpus):
        without_origin += _assert_parts_are_certified(np_)
        count += 1
    assert (count, without_origin) == (333, 307)


def _assert_distinct_parts_are_certified(found):
    """Each distinct part of the partitions ``found`` on one Δ certified
    once, as :func:`_assert_parts_are_certified` certifies a partition's,
    with every partition sharing a part's φ, Δᵢ and ∇ᵢ; returns how many
    delta parts of all the partitions lack the origin."""
    built = {}
    for np_ in found:
        for part, *objects in zip(np_.parts, np_.phi, np_.delta_parts, np_.nabla_parts):
            assert all(map(operator.is_, built.setdefault(part, objects), objects))
    delta = found[0].delta
    zero = Point((0,) * delta.ambient_dim, delta.space)
    for part, us in zip(built, oracles._functionals(delta, list(built))):
        phi, delta_part, nabla_part = built[part]
        assert phi.functionals == us, part
        oracles.certify_hull([zero] + [delta.vertices[i] for i in part], delta_part)
        oracles.certify_hull([-u for u in us], nabla_part)
    return sum(not any(v.is_zero() for v in p.vertices) for np_ in found for p in np_.delta_parts)


# Rows given by name are inputs of bench/scale.py.
@pytest.mark.parametrize(
    "coords, r, expected",
    [
        (FOUR_D["cross4"], 2, (127, 254, 174)),
        (FOUR_D["cross4"], 3, (966, 2898, 1058)),
        (SIMPLEX5, 2, (31, 62, 0)),
        (SIMPLEX5, 3, (90, 270, 0)),
        ("hex+seg+seg", 2, (159, 318, 202)),
        ("hex+hex", 2, (199, 398, 230)),
        ("cross5", 2, (511, 1022, 780)),
    ],
)
def test_parts_built_from_their_vertices_are_certified_on_larger_inputs(coords, r, expected, scale_bench):
    """(partitions, delta parts, delta parts without the origin)."""
    if isinstance(coords, str):
        coords = scale_bench.POLYTOPES[coords]
    found = enumerate_nef_partitions(_fresh(coords), r)
    without_origin = _assert_distinct_parts_are_certified(found)
    assert (len(found), r * len(found), without_origin) == expected


class _Unread:
    """A stand-in for a nabla part that fails on any read of it."""

    def __getattribute__(self, name):
        raise AssertionError(f"a nabla part was read: {name}")


def test_a_delta_part_reads_no_nabla_part(monkeypatch, corpus):
    """Δᵢ is built from Eᵢ and φᵢ alone: with every nabla part replaced by
    a stand-in that fails on any read, enumeration and validation build
    the delta parts they build otherwise, on every reflexive corpus
    polytope at r = 1..3 and the 4-simplex and 4D cross-polytope at r = 2."""
    inputs = [(_coords(e.polytope), r) for e in corpus if e.reflexive for r in (1, 2, 3)]
    inputs += [(FOUR_D["simplex4"], 2), (FOUR_D["cross4"], 2)]

    def delta_parts():
        out = []
        for coords, r in inputs:
            found = enumerate_nef_partitions(_fresh(coords), r)
            base = _fresh(coords)
            validated = [validate_partition(base, np_.parts) for np_ in found]
            out.append([[p.vertices for p in np_.delta_parts] for np_ in found + validated])
        return out

    expected = delta_parts()
    monkeypatch.setattr(nefpart, "support_polytope", lambda f: _Unread())
    assert delta_parts() == expected
    origins = Counter(any(v.is_zero() for v in vs) for case in expected for np_ in case for vs in np_)
    assert origins[True] and origins[False]


def test_the_result_is_in_the_order_of_canonical_parts(corpus, scale_bench):
    """On every bench/scale.py row and on the corpus at r = 1..3, the
    result, sorted by each cover's member tuples, is the found partitions
    sorted by ``NefPartition.canonical_parts``."""
    inputs = [(scale_bench.POLYTOPES[name], r, n) for (name, r), n in scale_bench.EXPECTED.items()]
    inputs += [(_coords(e.polytope), r, None) for e in corpus if e.reflexive for r in (1, 2, 3)]
    for coords, r, count in inputs:
        found = enumerate_nef_partitions(_fresh(coords), r)
        assert count in (None, len(found))
        ordered = sorted(found, key=NefPartition.canonical_parts)
        assert list(map(id, found)) == list(map(id, ordered)), (coords, r)


def test_the_one_delta_part_of_a_partition_into_one_part_is_delta(corpus):
    """At r = 1, Δ₁ = Δ: the origin is inside, so not a vertex."""
    bases = [_fresh([v.coords for v in e.polytope.vertices]) for e in corpus if e.reflexive]
    bases += [_fresh(FOUR_D[name]) for name in ("simplex4", "cross4", "cube4")]
    for delta in bases:
        np_ = validate_partition(delta, [range(len(delta.vertices))])
        assert _assert_parts_are_certified(np_) == 1
        assert _polytope_record(np_.delta_parts[0]) == _polytope_record(delta)


def test_a_delta_part_around_the_origin_does_not_have_it_as_a_vertex():
    """Parts {±e_k}: 0 lies in conv(E_i), so Δᵢ is the segment conv(E_i)."""
    for delta in (CROSS, OCTA):
        axes = [
            [delta.vertices.index(Point(_unit(delta.ambient_dim, k, s))) for s in (1, -1)]
            for k in range(delta.ambient_dim)
        ]
        np_ = validate_partition(_fresh([v.coords for v in delta.vertices]), axes)
        assert _assert_parts_are_certified(np_) == np_.r
        for i, part in enumerate(np_.delta_parts):
            assert part.vertices == tuple(np_.part_vertices(i)) and part.dim == 1


def test_the_h_description_decides_membership_like_the_facets(corpus):
    """Every nabla part of the audit inputs decides membership by its
    facets, which agrees with membership by Borisov's H-description,
    <v, y> >= -phi(v) at every vertex v of delta (``oracles.hrep_contains``),
    on every lattice point of its bounding box widened by 1 and on the
    origin."""
    inside = outside = 0
    for np_ in _audit_inputs(corpus):
        for f, part in zip(np_.phi, np_.nabla_parts):
            box = [range(min(c) - 1, max(c) + 2) for c in zip(*[v._num for v in part.vertices])]
            ys = [Point(c, part.space) for c in itertools.product(*box)]
            ys.append(Point((0,) * part.ambient_dim, part.space))
            for y in ys:
                got = part.contains(y)
                assert got == oracles.hrep_contains(f, y), (part, y)
                inside += got
                outside += not got
    assert (inside, outside) == (8877, 175786)
