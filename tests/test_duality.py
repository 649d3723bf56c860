"""The mirror construction: nabla, the dual partition, and the check suite."""

import os
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

import oracles
from test_nefpart import (
    _assert_parts_are_certified,
    _audit_inputs,
    _coords,
    _fresh,
    entry_by_definition,
    exact_count,
    pairing_checks,
)

from nefdual import cli, duality, fan, nefpart, polytope
from nefdual.duality import (
    dual_nef_partition,
    nabla,
    run_full_duality,
    verify_delta_parts_from_dual,
    verify_involution,
    verify_nabla_polar_is_delta_sum,
    verify_nabla_reflexive,
    verify_polar_is_nabla_sum,
)
from nefdual.errors import DimensionMismatch, GeometryError, InvariantViolation, NotReflexive
from nefdual.fan import PLFunction, face_fan
from nefdual.nefpart import NefPartition, enumerate_nef_partitions, validate_partition
from nefdual.polytope import SPACE_N, Point, Polytope, dual_space, hull, minkowski_sum

F = Fraction

CHECK_KEYS = (
    "polar_is_nabla_sum",
    "nabla_polar_is_delta_sum",
    "nabla_reflexive",
    "pairing_relations",
    "delta_parts_from_dual",
    "involution",
)


def P(*coords):
    return Point(coords)


def N(*coords):
    return Point(coords, SPACE_N)


CROSS = hull([P(1, 0), P(0, 1), P(-1, 0), P(0, -1)])
OCTA = hull([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(-1, 0, 0), P(0, -1, 0), P(0, 0, -1)])
HEXAGON = hull([P(1, 0), P(0, 1), P(1, 1), P(-1, 0), P(0, -1), P(-1, -1)])

CROSS_N = hull([N(1, 0), N(0, 1), N(-1, 0), N(0, -1)])
HEXAGON_N = hull([N(1, 0), N(0, 1), N(1, 1), N(-1, 0), N(0, -1), N(-1, -1)])


def part_of(base, *coord_tuples):
    return frozenset(base.vertices.index(P(*c)) for c in coord_tuples)


def axis_partition():
    return validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (-1, 0)), part_of(CROSS, (0, 1), (0, -1))]
    )


def diagonal_partition():
    return validate_partition(
        CROSS, [part_of(CROSS, (1, 0), (0, 1)), part_of(CROSS, (-1, 0), (0, -1))]
    )


def octa_single_vertex_partition():
    rest = [(0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    return validate_partition(
        OCTA, [part_of(OCTA, (1, 0, 0)), part_of(OCTA, *rest)]
    )


def dual_part_vertex_sets(dual):
    return {
        frozenset(dual.delta.vertices[i] for i in part) for part in dual.parts
    }


def test_nabla_axis_is_self_mirror():
    assert nabla(axis_partition()) == CROSS_N


def test_nabla_diagonal_is_hexagon():
    assert nabla(diagonal_partition()) == HEXAGON_N


def test_nabla_single_part_is_polar(corpus):
    for entry in corpus:
        if not entry.reflexive:
            continue
        poly = entry.polytope
        np_ = validate_partition(poly, [range(len(poly.vertices))])
        assert nabla(np_) == poly.polar_dual()


def test_polar_is_nabla_sum_axis():
    np_ = axis_partition()
    check = verify_polar_is_nabla_sum(np_)
    assert check.passed
    seg_sum = minkowski_sum(*np_.nabla_parts)
    assert seg_sum == hull([N(1, 1), N(1, -1), N(-1, 1), N(-1, -1)])


def test_nabla_polar_is_delta_sum_octahedron():
    np_ = octa_single_vertex_partition()
    assert verify_nabla_polar_is_delta_sum(np_).passed
    expected = minkowski_sum(np_.delta_parts[0], np_.delta_parts[1])
    assert nabla(np_).polar_dual() == expected
    assert expected.is_lattice()


def test_nabla_reflexive_examples():
    assert verify_nabla_reflexive(axis_partition()).passed
    assert verify_nabla_reflexive(diagonal_partition()).passed
    assert verify_nabla_reflexive(octa_single_vertex_partition()).passed


def test_dual_partition_axis_is_same_combinatorial_datum():
    dual = dual_nef_partition(axis_partition())
    assert dual.delta == CROSS_N
    assert dual_part_vertex_sets(dual) == {
        frozenset({N(-1, 0), N(1, 0)}),
        frozenset({N(0, -1), N(0, 1)}),
    }


def test_dual_partition_hexagon_parts_exclude_origin():
    dual = dual_nef_partition(diagonal_partition())
    assert dual.delta == HEXAGON_N
    assert dual_part_vertex_sets(dual) == {
        frozenset({N(-1, -1), N(-1, 0), N(0, -1)}),
        frozenset({N(1, 1), N(1, 0), N(0, 1)}),
    }


def test_dual_partition_single_part_is_polar_duality(corpus_by_name):
    poly = corpus_by_name["triangle"].polytope
    np_ = validate_partition(poly, [range(len(poly.vertices))])
    dual = dual_nef_partition(np_)
    assert dual.delta == poly.polar_dual()
    assert dual.parts == (frozenset(range(len(dual.delta.vertices))),)


def test_dual_partition_octahedron_excludes_zero_vertex():
    """0 is a vertex of the first nabla part here, but never of nabla itself."""
    np_ = octa_single_vertex_partition()
    zero = N(0, 0, 0)
    assert zero in np_.nabla_parts[0].vertices
    dual = dual_nef_partition(np_)
    assert zero not in dual.delta.vertices
    sizes = sorted(len(part) for part in dual.parts)
    assert sizes == [1, 8]
    assert dual_part_vertex_sets(dual) >= {frozenset({N(-1, 0, 0)})}


def test_delta_parts_recovered_from_dual():
    for np_ in (axis_partition(), diagonal_partition(), octa_single_vertex_partition()):
        assert verify_delta_parts_from_dual(np_).passed

    dual = dual_nef_partition(diagonal_partition())
    assert dual.nabla_parts[0] == hull([P(0, 0), P(1, 0), P(0, 1)])


def test_a_dual_with_another_number_of_parts_fails_delta_parts_from_dual():
    """The octahedron's three-part dual cut to two parts, and the
    octahedron cut to two parts given its three-part dual: each fails the
    check, with both part counts as its witness, and raises nothing."""
    np_ = octa_three_part_partition()
    dual = dual_nef_partition(np_)

    def cut(p):
        return p._replace(**{f: getattr(p, f)[:2] for f in ("parts", "phi", "delta_parts", "nabla_parts")})

    for source, given in ((np_, cut(dual)), (cut(np_), dual)):
        assert verify_delta_parts_from_dual(source, given) == (
            "delta_parts_from_dual", False, {"parts": source.r, "dual_parts": given.r}, ""
        )
    assert verify_delta_parts_from_dual(np_, dual).passed


def test_involution_examples():
    assert verify_involution(axis_partition()).passed
    assert verify_involution(diagonal_partition()).passed
    assert verify_involution(octa_single_vertex_partition()).passed


def test_involution_from_the_hexagon_side():
    """Running the construction on the mirror datum lands back on the cross."""
    np_ = validate_partition(
        HEXAGON,
        [part_of(HEXAGON, (1, 0), (0, 1), (1, 1)),
         part_of(HEXAGON, (-1, 0), (0, -1), (-1, -1))],
    )
    assert isinstance(np_, NefPartition)
    dual = dual_nef_partition(np_)
    assert dual.delta == CROSS_N
    assert dual_part_vertex_sets(dual) == {
        frozenset({N(-1, 0), N(0, -1)}),
        frozenset({N(1, 0), N(0, 1)}),
    }
    assert verify_involution(np_).passed


def test_run_full_duality_reports_all_checks():
    result = run_full_duality(octa_single_vertex_partition())
    assert tuple(result.checks.keys()) == CHECK_KEYS
    assert result.all_passed
    assert all(result.checks[k].name == k for k in CHECK_KEYS)
    assert result.nabla == nabla(result.source)
    assert len(result.psi) == result.source.r


def outcome(fn, *args):
    """What a check did: its returned value, or the exception it raised."""
    try:
        return ("returned", fn(*args))
    except (GeometryError, InvariantViolation) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))


def swapped(dual, *fields):
    return dual._replace(**{f: tuple(reversed(getattr(dual, f))) for f in fields})


def merged(dual):
    """The dual with its first two parts merged: still a nef-partition."""
    parts = [dual.parts[0] | dual.parts[1], *dual.parts[2:]]
    out = validate_partition(dual.delta, parts)
    assert isinstance(out, NefPartition)
    return out


def octa_three_part_partition():
    return validate_partition(
        OCTA,
        [part_of(OCTA, (1, 0, 0), (-1, 0, 0)),
         part_of(OCTA, (0, 1, 0), (0, -1, 0)),
         part_of(OCTA, (0, 0, 1), (0, 0, -1))],
    )


SOURCES = (
    axis_partition,
    diagonal_partition,
    octa_single_vertex_partition,
    octa_three_part_partition,
)


def tampered_duals(dual):
    return [
        swapped(dual, "delta_parts"),  # the source is reused; its relations fail
        swapped(dual, "nabla_parts"),
        swapped(dual, "parts", "nabla_parts"),
        merged(dual),
    ]


def test_a_tampered_dual_gets_the_involution_deciders_verdict():
    """Each tampered dual gives the involution check the verdict and
    witness of the decider, which reads the double dual off the dual's
    Cayley hull. Where it passes, as the datum does come back, the
    tampered dual fails the relation decider."""
    verdicts = Counter()
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        for bad in tampered_duals(dual):
            check = verify_involution(np_, bad)
            assert check == oracles.involution_check(np_, bad), source.__name__
            if check.passed:
                assert not oracles.relation_report(bad), source.__name__
            verdicts[check.passed] += 1
    assert verdicts == {True: 12, False: 4}


def shrunk(poly):
    """``poly`` less its first nonzero vertex, with the origin added."""
    lost = next(v for v in poly.vertices if not v.is_zero())
    zero = Point((0,) * poly.ambient_dim, poly.space)
    return hull([v for v in poly.vertices if v != lost] + [zero])


def with_part(np_, field, i, poly):
    parts = list(getattr(np_, field))
    parts[i] = poly
    return np_._replace(**{field: tuple(parts)})


SUM_CHECKS = (verify_polar_is_nabla_sum, verify_nabla_polar_is_delta_sum)


def sum_check_tampers(np_):
    """Each tampered partition with the index in SUM_CHECKS of the check
    that reads the tampered parts."""
    return [
        (with_part(np_, "nabla_parts", 0, np_.nabla_parts[1]), 0),
        (with_part(np_, "nabla_parts", 0, np_.delta_parts[0]), 0),
        (with_part(np_, "nabla_parts", 1, shrunk(np_.nabla_parts[1])), 0),
        (with_part(np_, "delta_parts", 0, shrunk(np_.delta_parts[0])), 1),
    ]


def test_tampered_parts_get_the_sum_check_deciders_verdicts():
    """A nabla part swapped for another nabla part or for a delta part, a
    nabla part shrunk and a delta part shrunk: each sum check gives the
    CheckResult of its decider, or raises where the decider finds no polar
    or no sum, and the check that reads the tampered parts fails."""
    raised = Counter()
    for source in SOURCES:
        for np_ in (source(), dual_nef_partition(source())):
            for bad, failing in sum_check_tampers(np_):
                deciders = oracles.sum_checks(bad)
                for k, check in enumerate(SUM_CHECKS):
                    got = outcome(check, bad)
                    expected = deciders[check.__name__.removeprefix("verify_")]
                    if got[0] == "raised":
                        assert expected is None, (source.__name__, k, expected)
                        raised[got[1].__name__] += 1
                    else:
                        assert got[1] == expected, (source.__name__, k)
                    if k == failing:
                        assert got[0] == "raised" or not got[1].passed, (source.__name__, got)
    assert raised == {"DimensionMismatch": 16, "ZeroNotInterior": 10, "NotFullDimensional": 4}


def test_a_sum_that_is_a_polar_off_the_lattice_fails_the_nabla_check():
    """Nabla parts doubled and delta parts halved: the delta parts still sum
    to the polar of the doubled nabla, but that polar is not a lattice
    polytope, so the check fails, as the lattice test of nabla's facet
    offsets finds, with the decider's witness."""
    for source in SOURCES:
        np_ = source()
        bad = np_._replace(
            nabla_parts=tuple(doubled(p) for p in np_.nabla_parts),
            delta_parts=tuple(scaled(p, F(1, 2)) for p in np_.delta_parts),
        )
        assert duality._is_polar_sum(nabla(bad), bad.delta_parts, nefpart._Pairings())
        new = verify_nabla_polar_is_delta_sum(bad)
        assert not new.passed
        assert new == oracles.sum_checks(bad)["nabla_polar_is_delta_sum"]


def test_no_request_builds_the_facets_of_a_polar(capsys, monkeypatch):
    """The polar ``nefdual polar`` writes and the one a failing sum check
    puts in its witness are used for their vertices alone: neither gets its
    span or facets, so neither takes a hull."""
    polars = []
    polar_dual = Polytope.polar_dual

    def kept(self):
        polars.append(polar_dual(self))
        return polars[-1]

    monkeypatch.setattr(Polytope, "polar_dual", kept)
    square = os.path.join(os.path.dirname(cli.__file__), "data", "d2_square.poly")
    assert cli.main(["polar", square]) == 0
    assert capsys.readouterr().out.startswith("2 4\n")
    np_ = octa_three_part_partition()
    bad = np_._replace(
        nabla_parts=tuple(doubled(p) for p in np_.nabla_parts),
        delta_parts=tuple(scaled(p, F(1, 2)) for p in np_.delta_parts),
    )
    check = verify_nabla_polar_is_delta_sum(bad)
    assert not check.passed
    assert check.witness["nabla_polar_vertices"] == [v.coords for v in polars[-1].vertices]
    assert len(polars) == 2
    for polar in polars:
        assert polar._affine_span is None and polar._facets is None


def test_a_relabeled_dual_passes_the_involution_decider():
    """A consistent relabeling of the dual is the same unlabeled datum."""
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        relabeled = swapped(dual, "parts", "phi", "delta_parts", "nabla_parts")
        check = verify_involution(np_, relabeled)
        assert check.passed
        assert check == oracles.involution_check(np_, relabeled)


def test_the_dual_of_another_partition_fails_the_involution_decider():
    """The dual of the cross's diagonal partition given as the dual of its
    axis partition, and back: the double dual's base is the cross, but its
    parts are the other partition's, so the check fails on the parts, with
    the decider's witness."""
    for np_, other in ((axis_partition(), diagonal_partition()), (diagonal_partition(), axis_partition())):
        check = verify_involution(np_, dual_nef_partition(other))
        assert not check.passed and "double_dual_parts" in check.witness
        assert check == oracles.involution_check(np_, dual_nef_partition(other))


@pytest.fixture
def duality_work(monkeypatch):
    """``duality_work(np_)`` runs ``run_full_duality(np_)`` and returns what
    it built and paired: the hull calls, the ``polar_dual`` calls, the
    pairing tables made, whether the dual shares the source's table, the
    ``_dot`` calls made outside a hull, the dual's validation, a
    ``Polytope.contains`` and the table, whether the table made exactly
    one ``_dot`` call per entry, and whether it formed ℓ_F and its minimum
    exactly once per (facet, part) of the two sum checks: each facet of Δ
    with each nabla part, each facet of ∇ with each delta part. Each
    ``_dot`` call is charged to the innermost of those it is made in."""
    stack = []
    counts = Counter()

    def charged(label, fn):
        def run(*args):
            counts[label] += 1
            stack.append(label)
            try:
                return fn(*args)
            finally:
                stack.pop()

        return run

    originals = {"_dot": polytope._dot, "hull": polytope.hull, "validate_partition": validate_partition}
    dot = originals["_dot"]

    def counted_dot(a, b):
        counts[("_dot", stack[-1] if stack else None)] += 1
        return dot(a, b)

    wrapped = {
        "_dot": counted_dot,
        "hull": charged("hull", originals["hull"]),
        "validate_partition": charged("validate", validate_partition),
    }
    for name, module in list(sys.modules.items()):
        if name == "nefdual" or name.startswith("nefdual."):
            for key, value in list(vars(module).items()):
                for fn_name, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, key, wrapped[fn_name])
    monkeypatch.setattr(Polytope, "contains", charged("contains", Polytope.contains))
    monkeypatch.setattr(Polytope, "polar_dual", charged("polar_dual", Polytope.polar_dual))
    monkeypatch.setattr(nefpart._Pairings, "__init__", charged("table", nefpart._Pairings.__init__))
    monkeypatch.setattr(nefpart._Pairings, "_add", charged("entries", nefpart._Pairings._add))
    facet_lows = nefpart._facet_lows

    def counted_facet_lows(block, facets, ys):
        counts["facet answers"] += len(facets)
        return facet_lows(block, facets, ys)

    monkeypatch.setattr(nefpart, "_facet_lows", counted_facet_lows)

    def work(np_):
        counts.clear()
        result = run_full_duality(np_)
        assert result.all_passed
        table = np_._pairings
        entries = len(table.rows["M"]) * len(table.rows["N"])
        return (
            counts["hull"],
            counts["polar_dual"],
            counts["table"],
            result.dual._pairings is table,
            counts[("_dot", None)],
            counts[("_dot", "entries")] == entries,
            counts["facet answers"] == (len(result.nabla.facets) + len(np_.delta.facets)) * np_.r,
        )

    return work


def test_one_duality_builds_each_object_once(duality_work, corpus):
    """One run_full_duality on a validated partition makes one hull call:
    nabla. The dual's delta and nabla parts are the source's nabla and delta
    parts, and the double dual's base is the source's base. No polar is
    built, as both Minkowski identities are decided on the base's own
    vertices and facets, and no hull either. One pairing table serves the
    source and the dual, and every pairing the checks make is one of its
    entries, computed once: no other dot product is made outside the hull,
    the dual's validation and the cover test. Each facet sum ℓ_F and its
    minimum over a part are formed once, so the read-off and the ∇ sum
    check share them. A rebuild of any side, a pairing outside the table or
    a facet sum formed twice shows here, on the 5-simplex, the octahedron
    and every corpus nef-partition at r = 2, 3."""
    once = (1, 0, 1, True, 0, True, True)
    simplex5 = hull(
        [P(*(1 if j == i else 0 for j in range(5))) for i in range(5)] + [P(-1, -1, -1, -1, -1)]
    )
    cubics = validate_partition(simplex5, [[0, 1, 2], [3, 4, 5]])
    assert duality_work(cubics) == once
    assert duality_work(octa_three_part_partition()) == once
    found = [
        np_
        for entry in corpus
        if entry.reflexive
        for r in (2, 3)
        for np_ in enumerate_nef_partitions(entry.polytope, r)
    ]
    assert [duality_work(np_) for np_ in found] == [once] * 164


def test_validating_an_accepted_partition_builds_no_hull(count_hulls):
    """Validating an accepted partition makes no hull call: each delta and
    nabla part is built from its vertices, and no polar is built, whether
    or not it and the fan were built before. A part's first read of its
    facets makes one hull call, and a second read none."""
    for np_ in (octa_three_part_partition(), axis_partition(), diagonal_partition()):
        parts = [sorted(p) for p in np_.parts]
        assert count_hulls(validate_partition, np_.delta, parts) == 0
        fresh = hull(list(np_.delta.vertices))
        assert count_hulls(validate_partition, fresh, parts) == 0
        built = validate_partition(fresh, parts)
        for part in built.delta_parts + built.nabla_parts:
            assert count_hulls(getattr, part, "facets") == 1
            assert count_hulls(getattr, part, "facets") == 0


# The duality against the definition: every object run_full_duality
# builds against tests/oracles.cayley_duality, which reads the nabla parts
# off one certified hull of the Cayley polytope and builds nabla, the dual's
# labels, every functional and the double dual with no fan, PL function,
# pairing table, polar, Minkowski sum or validation, and the six checks
# against the deciders in tests/oracles.py. Polytope.__eq__ compares
# vertices only, so nabla is compared in full.


def polytope_data(poly):
    return (poly.space, poly.ambient_dim, poly.vertices, poly.affine_span, poly.facets)


def assert_the_cayley_oracle_holds(result):
    """``result``, a DualityResult, is the oracle's duality of its source:
    nabla in full, every nabla part and delta part on both sides as vertex
    sets, the dual's labels, every phi and psi functional on every cone,
    and the six checks equal to the deciders'. Returns the oracle's
    duality."""
    np_, dual = result.source, result.dual
    oracle = oracles.cayley_duality(np_.delta, np_.parts)
    assert polytope_data(result.nabla) == polytope_data(oracle.nabla), "nabla"
    assert [p.vertices for p in np_.nabla_parts] == list(oracle.nabla_parts), "nabla parts"
    assert [p.vertices for p in dual.delta_parts] == list(oracle.nabla_parts), "the dual's delta parts"
    assert [p.vertices for p in np_.delta_parts] == list(oracle.delta_parts), "delta parts"
    assert [p.vertices for p in dual.nabla_parts] == list(oracle.delta_parts), "the dual's nabla parts"
    assert dual.parts == oracle.labels, "labels"
    assert [f.functionals for f in np_.phi] == list(oracle.phi), "phi"
    assert [f.functionals for f in dual.phi] == list(oracle.psi), "psi"
    assert dict(result.checks) == oracles.duality_checks(np_, dual), "checks"
    return oracle


def memo_from_the_definition(nb, labels, psi):
    """The entry memo of nabla's fan that a duality leaves: for each cone c
    over a facet of ``nb`` and each dual part k, the entry of k's pattern on
    c (:meth:`FaceFan.entry`), (psi_k's functional u on c, the vertices
    where <v, u> > 0, those where it is > 1), paired by ``int`` dot
    products of the integer forms."""
    memo = {}
    for part, us in zip(labels, psi):
        s = sum(1 << i for i in part)
        for c, (f, u) in enumerate(zip(nb.facets, us)):
            # <v, u> > 1 is <v._num, u._num> > v._den * u._den, both positive
            dots = [(sum(map(mul, v._num, u._num)), v._den * u._den) for v in nb.vertices]
            gt0 = sum(1 << v for v, (x, _) in enumerate(dots) if x > 0)
            gt1 = sum(1 << v for v, (x, den) in enumerate(dots) if x > den)
            memo[c, s & sum(1 << i for i in f.incidence)] = (u, gt0, gt1)
    return memo


def assert_the_duality_and_its_memo_hold(np_):
    result = run_full_duality(np_)
    assert result.all_passed
    oracle = assert_the_cayley_oracle_holds(result)
    memo = memo_from_the_definition(oracle.nabla, oracle.labels, oracle.psi)
    assert face_fan(result.nabla)._entries == memo


def doubled(poly):
    return hull([v.scale(2) for v in poly.vertices])


def without_origin(poly):
    """The hull of the nonzero vertices of ``poly``."""
    return hull([v for v in poly.vertices if not v.is_zero()])


def hull_path_tampers(np_):
    tampered = [
        with_part(np_, "delta_parts", 0, shrunk(np_.delta_parts[0])),
        with_part(np_, "delta_parts", 0, doubled(np_.delta_parts[0])),
        swapped(np_, "delta_parts"),
        np_._replace(delta=doubled(np_.delta)),
    ]
    for i, part in enumerate(np_.nabla_parts):
        if any(v.is_zero() for v in part.vertices):
            # a vertex is not in the hull of the other vertices
            tampered.append(with_part(np_, "nabla_parts", i, without_origin(part)))
    return tampered


RAISED_FOR = {NotReflexive: "nabla is not reflexive", DimensionMismatch: "parts that do not pair"}


def judged(bad):
    """run_full_duality on the tampered source ``bad`` against the
    definition: its six checks equal the deciders', or it raised the error
    of the one reason ``oracles.failure_reasons`` finds. Returns the names
    of the failing checks, or the name of the error raised."""
    got = outcome(run_full_duality, bad)
    reasons = oracles.failure_reasons(bad)
    if got[0] == "raised":
        assert reasons == {RAISED_FOR[got[1]]}, (bad, got)
        return got[1].__name__
    assert reasons == set(), bad
    checks = dict(got[1].checks)
    assert checks == oracles.duality_checks(bad, got[1].dual), bad
    return tuple(name for name, check in checks.items() if not check.passed)


def test_tampered_sources_take_the_hull_path_and_are_judged_by_the_definition():
    """A delta part shrunk, grown out of delta or swapped for another; a
    base that is not the union of the delta parts (so the cover test
    refuses it and the double dual's base is a hull); and a nabla part that
    misses the origin. Each fails a decider, and the run gives the
    deciders' checks, or raises for the reason they name."""
    missing_origin = 0
    failed = Counter()
    for source in SOURCES:
        np_ = source()
        missing_origin += sum(
            any(v.is_zero() for v in part.vertices) for part in np_.nabla_parts
        )
        for bad in hull_path_tampers(np_):
            verdict = judged(bad)
            assert verdict, bad
            failed.update(["source", *verdict])
    assert missing_origin > 0
    assert failed == {
        "source": 19, "pairing_relations": 14, "delta_parts_from_dual": 12,
        "nabla_polar_is_delta_sum": 8, "polar_is_nabla_sum": 7, "involution": 4,
    }


# The cones of nabla's fan that get a kernel in the library are those where
# the read-off fails; the expected set is computed here with the Fraction
# pairing of tests/oracles.py.


def kernel_cones(np_):
    """The cones of nabla's fan that got a kernel."""
    return {ci for ci, kernel in enumerate(face_fan(nabla(np_))._kernels) if kernel}


def read_off_failures(np_):
    """The cones of nabla's fan on which, for some part j, the vertices of
    ``np_.delta_parts[j]`` minimising <·, ℓ_F> (ℓ_F the sum of F's vertices)
    are not one vertex w, or <y, -w> is not psi_j's value 0 or 1 at some
    vertex y of F; every cone when a delta part has another dimension."""
    nb = nabla(np_)
    parts = duality._dual_parts(np_, nb)
    failed = set()
    for cone in face_fan(nb):
        ys = [nb.vertices[i] for i in cone.vertex_indices]
        ell = Point([sum(c) for c in zip(*[y.coords for y in ys])], nb.space)
        for part, dp in zip(parts, np_.delta_parts):
            if dp.ambient_dim != nb.ambient_dim:
                failed.add(cone.index)
                continue
            values = [oracles.pair(x, ell) for x in dp.vertices]
            lowest = [x for x, v in zip(dp.vertices, values) if v == min(values)]
            if len(lowest) > 1 or any(
                -oracles.pair(lowest[0], y) != (i in part)
                for i, y in zip(cone.vertex_indices, ys)
            ):
                failed.add(cone.index)
    return failed


def test_the_duality_is_the_cayley_oracles_on_the_audit_inputs(corpus):
    """Every corpus nef-partition at r = 1..3, the enum4d inputs at r = 2
    as they are and sheared, the 5-simplex's two cubics and the 4D
    cross-polytope at r = 2: the duality is the oracle's, with every check
    passing, the entry memo of nabla's fan is the definition's, and no cone
    of nabla's fan gets a kernel."""
    count = 0
    for np_ in _audit_inputs(corpus):
        assert_the_duality_and_its_memo_hold(np_)
        assert kernel_cones(np_) == set() == read_off_failures(np_)
        count += 1
    # 175 corpus partitions, 15 + 15 on the 4-simplex, 1 on the 5-simplex, 127 on cross4
    assert count == 333


def test_the_duality_is_the_cayley_oracles_on_the_scale_inputs(scale_bench):
    """Alike on at most 48 partitions, evenly strided, of each
    ``bench/scale.py`` input at r = 2, 3."""
    count = 0
    for name in scale_bench.POLYTOPES:
        for r in (2, 3):
            found = enumerate_nef_partitions(scale_bench.fresh(name), r)
            for np_ in found[:: -(-len(found) // 48) or 1]:
                assert_the_duality_and_its_memo_hold(np_)
                count += 1
    assert count == 432


def dropped_vertex(result):
    """Nabla part 0 less its first nonzero vertex."""
    part = result.source.nabla_parts[0]
    lost = next(v for v in part.vertices if not v.is_zero())
    bad = with_part(result.source, "nabla_parts", 0, hull([v for v in part.vertices if v != lost]))
    return result._replace(source=bad), "nabla parts"


def added_point(result):
    """Nabla part 0 with a lattice point of it that is no vertex listed
    among its vertices."""
    part = result.source.nabla_parts[0]
    point = next(y for y in part.lattice_points() if y not in part.vertices)
    points = [*part.vertices, point]
    bad = with_part(result.source, "nabla_parts", 0, Polytope._from_vertices(points, points))
    return result._replace(source=bad), "nabla parts"


def swapped_labels(result):
    """The dual's first vertex of part 0 and first vertex of part 1 given
    each other's part."""
    parts = list(result.dual.parts)
    a, b = min(parts[0]), min(parts[1])
    parts[0], parts[1] = parts[0] - {a} | {b}, parts[1] - {b} | {a}
    return result._replace(dual=result.dual._replace(parts=tuple(parts))), "labels"


def shifted_psi(result):
    """psi_0's functional on cone 0 moved by a unit lattice vector."""
    f = result.dual.phi[0]
    step = Point((1,) + (0,) * (f.functionals[0].dim - 1), f.functionals[0].space)
    moved = PLFunction(f.fan, f.vertex_values, (f.functionals[0] + step, *f.functionals[1:]), None)
    return result._replace(dual=result.dual._replace(phi=(moved, *result.dual.phi[1:]))), "psi"


MUTANT_SOURCES = {
    1: lambda: validate_partition(CROSS, [range(4)]), 2: axis_partition, 3: octa_three_part_partition
}


@pytest.mark.parametrize(
    "mutation, r",
    [(m, r) for m in (dropped_vertex, added_point, swapped_labels, shifted_psi) for r in (1, 2, 3)
     if (m, r) != (swapped_labels, 1)],
    ids=lambda x: x.__name__ if callable(x) else f"r{x}",
)
def test_the_oracle_rejects_a_wrong_duality(mutation, r):
    """The duality of the cross at r = 1, of its axis partition at r = 2 and
    of the octahedron's three axes at r = 3 passes the oracle comparison;
    with a nabla part's vertex dropped, a non-vertex lattice point listed
    as a nabla part's vertex, two of the dual's labels swapped (at r >= 2,
    as one part has no other to swap with) or one cone's psi functional
    moved by a lattice vector, it fails, at the comparison that reads the
    mutated field."""
    result = run_full_duality(MUTANT_SOURCES[r]())
    assert result.source.r == r
    assert_the_cayley_oracle_holds(result)
    wrong, match = mutation(result)
    with pytest.raises(AssertionError, match=match):
        assert_the_cayley_oracle_holds(wrong)


def test_the_oracle_calls_none_of_the_librarys_duality_routes(corpus, monkeypatch):
    """The dualities of every corpus nef-partition at r = 2, run first,
    pass the oracle comparison with FaceFan's reads, face_fan,
    validate_partition, the pairing table, support_polytope,
    Polytope.polar_dual, minkowski_sum and the read-off all made to
    raise."""
    results = [
        run_full_duality(np_)
        for entry in corpus if entry.reflexive
        for np_ in enumerate_nef_partitions(_fresh([v.coords for v in entry.polytope.vertices]), 2)
    ]

    def refused(*args, **kwargs):
        raise AssertionError("the oracle called the library's duality")

    originals = (
        fan.face_fan, nefpart.validate_partition, nefpart._Pairings, fan.support_polytope,
        polytope.minkowski_sum, duality._read_off,
    )
    for name, module in list(sys.modules.items()):
        if name == "oracles" or name == "nefdual" or name.startswith("nefdual."):
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, refused)
    for method in ("entry", "_read", "_weighted_read", "cone_functional", "_kernel"):
        monkeypatch.setattr(fan.FaceFan, method, refused)
    monkeypatch.setattr(Polytope, "polar_dual", refused)
    with pytest.raises(AssertionError, match="called the library"):
        run_full_duality(results[0].source._replace())
    for result in results:
        assert_the_cayley_oracle_holds(result)
    assert len(results) == 59


def scaled(poly, factor):
    return hull([v.scale(factor) for v in poly.vertices])


def with_a_tie(np_):
    """``np_`` with a point added to delta part 0 that ties, along ℓ_F of
    the first cone F of nabla's fan, with the part's minimiser w there; the
    point sorts after w, so w is still the first vertex of the lowest face."""
    nb = nabla(np_)
    ell = [sum(c) for c in zip(*[nb.vertices[i]._num for i in face_fan(nb).cones[0].vertex_indices])]
    part = np_.delta_parts[0]
    w = min(part.vertices, key=lambda x: oracles.pair(x, Point(ell, nb.space)))
    i, j = next((i, j) for i in range(len(ell)) for j in range(i + 1, len(ell)) if ell[i] or ell[j])
    t = [0] * len(ell)
    t[i], t[j] = ell[j], -ell[i]
    if t < [0] * len(t):
        t = [-x for x in t]
    return with_part(np_, "delta_parts", 0, hull(list(part.vertices) + [w + Point(t)]))


def projected(poly):
    """``poly`` with its last coordinate dropped: one ambient dimension less."""
    return hull([Point(v.coords[:-1], poly.space) for v in poly.vertices])


def kernel_path_tampers(np_):
    return [
        swapped(np_, "delta_parts"),
        with_part(np_, "delta_parts", 0, shrunk(np_.delta_parts[0])),
        with_part(np_, "delta_parts", 0, scaled(np_.delta_parts[0], F(2, 3))),
        with_a_tie(np_),
        with_part(np_, "delta_parts", 0, projected(np_.delta_parts[0])),
    ]


def test_tampered_delta_parts_take_the_kernel_and_are_judged_by_the_definition():
    """A delta part swapped for another, shrunk, scaled by 2/3, grown by a
    point that ties with its minimiser on a cone, or of one dimension less:
    the cones where the read-off fails, and only those, get a kernel; each
    source fails a decider, and the run gives the deciders' checks, or
    raises for the reason they name."""
    failed = Counter()
    for source in SOURCES:
        np_ = source()
        for bad in kernel_path_tampers(np_):
            verdict = judged(bad)
            assert verdict, bad
            failed.update(["source", *([verdict] if isinstance(verdict, str) else verdict)])
            assert kernel_cones(bad) == read_off_failures(bad) != set(), source.__name__
    assert failed == {
        "source": 20, "delta_parts_from_dual": 16, "pairing_relations": 13,
        "nabla_polar_is_delta_sum": 12, "DimensionMismatch": 4,
    }


# Every tampered source above judged by the definition: the dual is not
# audited once it is decided and not cross-checked against the source, and
# the pairing checks read the table's minima, so only the six checks stand
# between a wrong source and a passing run.


def tampered_sources():
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        yield from hull_path_tampers(np_)
        yield from kernel_path_tampers(np_)
        for side in (np_, dual):
            yield from (bad for bad, _ in sum_check_tampers(side))
        yield from tampered_duals(dual)


def test_the_pairing_mismatch_matches_the_definition_on_every_tampered_source():
    """On every dual that dual_nef_partition builds from a tampered source,
    and on every tampered source, the pairing checks find the mismatch
    that the definition finds."""
    built = exact = total = 0
    for bad in tampered_sources():
        got = outcome(dual_nef_partition, bad)
        dual = got[1] if got[0] == "returned" else None
        built += dual is not None
        checks = list(pairing_checks(bad, dual))
        total += len(checks)
        exact += exact_count(checks)
    # 87 tampered sources, of which 64 give a dual; on 44 of the checks
    # the part's vertices are not exactly the negated functionals
    assert (built, exact, total) == (64, 278, 322)


def test_a_wrong_delta_part_or_phi_fails_the_oracle():
    """A delta part that lost a vertex of delta, or one part's phi given
    for both: the run is not the Cayley oracle's, and fails a decider."""
    np_ = octa_single_vertex_partition()
    big = max(range(2), key=lambda i: len(np_.parts[i]))
    shrunk_part = with_part(np_, "delta_parts", big, shrunk(np_.delta_parts[big]))
    doubled_phi = np_._replace(phi=(np_.phi[0], np_.phi[0]))
    for bad, match in ((shrunk_part, "delta parts"), (doubled_phi, "phi")):
        with pytest.raises(AssertionError, match=match):
            assert_the_cayley_oracle_holds(run_full_duality(bad))
        assert judged(bad)


def test_a_delta_part_with_another_parts_vertex_fails_the_oracle():
    """Delta part 0 grown by a vertex of part 1: alike."""
    octa = octa_three_part_partition()
    for np_ in (octa, diagonal_partition()):
        gained = np_.part_vertices(1)[0]
        bad = with_part(np_, "delta_parts", 0, hull(list(np_.delta_parts[0].vertices) + [gained]))
        with pytest.raises(AssertionError, match="delta parts"):
            assert_the_cayley_oracle_holds(run_full_duality(bad))
        assert judged(bad)


def assert_the_memo_is_the_definitions(nb):
    """Every entry in the memo of the fan of ``nb``, a reflexive polytope,
    is the definition's."""
    vertices = _coords(nb)
    cones = oracles._cones(tuple(vertices), nb.ambient_dim)
    for (c, s), entry in face_fan(nb)._entries.items():
        assert entry == entry_by_definition(vertices, cones[c], s, dual_space(nb.space)), (nb, c, s)


def test_every_tampered_source_is_judged_by_the_definition():
    """On each tampered source the run gives the deciders' six checks, and
    the entry memo of nabla's fan holds the definition's entry
    (``entry_by_definition``, on the cones of ``oracles.reflexive_facets``)
    for every (cone, pattern) the dual's validation read; or it raises
    NotReflexive where nabla is not reflexive and DimensionMismatch where
    parts do not pair. Every source fails a decider but the four duals with
    two parts merged, which are nef-partitions: their dualities are the
    Cayley oracle's."""
    raised = Counter()
    valid = 0
    for bad in tampered_sources():
        verdict = judged(bad)
        if isinstance(verdict, str):
            raised[verdict] += 1
            continue
        result = run_full_duality(bad._replace())
        fan = face_fan(result.nabla)
        masks = [sum(1 << i for i in part) for part in result.dual.parts]
        assert set(fan._entries) == {(c, s & bits) for c, bits in enumerate(fan.bits) for s in masks}
        assert_the_memo_is_the_definitions(result.nabla)
        if not verdict:
            assert_the_cayley_oracle_holds(result)
            valid += 1
    assert raised == {"NotReflexive": 15, "DimensionMismatch": 12}
    assert valid == 4


# The dual decided on the entries that _read_off writes into nabla's fan,
# against the definition: nabla, the dual's labels and every psi
# functional, the last by oracles.nef_verdict on nabla's coordinates.


def corpus_and_tampered_sources(corpus):
    """Every corpus nef-partition at r = 1..3, then every tampered source."""
    for entry in corpus:
        if entry.reflexive:
            coords = [v.coords for v in entry.polytope.vertices]
            for r in (1, 2, 3):
                yield from enumerate_nef_partitions(_fresh(coords), r)
    yield from tampered_sources()


def test_the_dual_decided_on_the_fan_entries_gets_the_definitions_verdict(corpus):
    """dual_nef_partition, whose validation reads the entries _read_off
    writes, on every corpus nef-partition at r = 1..3 and every tampered
    source: its base is the certified hull of the nabla parts' vertices,
    its labels are the indices there of each nabla part's nonzero
    vertices, its psi functionals are ``oracles.nef_verdict``'s on that
    base and those labels, with psi convex and integral, each of its delta
    and nabla parts is the certified hull of its definition
    (``_assert_parts_are_certified``), and it keeps the source's base as
    its own nabla exactly when that is the hull of its nabla parts'
    vertices. Or it
    raises NotReflexive where nabla is not reflexive and DimensionMismatch
    where parts do not pair, as ``oracles.failure_reasons`` finds."""
    raised = Counter()
    count = 0
    for np_ in corpus_and_tampered_sources(corpus):
        count += 1
        got = outcome(dual_nef_partition, np_)
        if got[0] == "raised":
            assert RAISED_FOR[got[1]] in oracles.failure_reasons(np_), np_
            raised[got[1].__name__] += 1
            continue
        dual = got[1]
        points = [v for p in np_.nabla_parts for v in p.vertices]
        oracles.certify_hull(points, dual.delta)
        nb = oracles._certified_hull(points)
        assert dual.parts == oracles._labels(nb, [p.vertices for p in np_.nabla_parts]), np_
        psi = oracles.nef_verdict(_coords(nb), dual.parts, nb.ambient_dim)
        assert tuple(tuple(u.coords for u in f.functionals) for f in dual.phi) == psi, np_
        assert all(f.is_convex and f.is_integral for f in dual.phi), np_
        _assert_parts_are_certified(dual)
        covered = oracles._certified_hull([v for p in dual.nabla_parts for v in p.vertices])
        assert (dual._nabla is np_.delta) == (covered.vertices == np_.delta.vertices), np_
    assert count == 175 + 87
    assert raised == {"NotReflexive": 15, "DimensionMismatch": 8}


def test_a_read_off_functional_above_one_is_the_definitions_entry(corpus_by_name):
    """The 3-simplex parted {(-1, -1, -1)}, {e1, e2, e3}, with e1 moved
    from nabla part 0 to nabla part 1 and (-1, 0, 0) added to delta part 1.
    Nabla is unchanged, but the dual's part 1 now holds e1 alone of the
    facet {e1, e2, e3} of nabla, and along e1 + e2 + e3 delta part 1's one
    minimiser w = (-1, 0, 0) takes that pattern. So the read-off writes the
    functional -w, which is 2 at the vertex (2, -1, -1) of nabla: an entry
    whose gt1 is not empty. Every entry in the memo is the definition's,
    and the dual's validation rejects the labels as the definition does."""
    simplex = corpus_by_name["simplex3d"].polytope
    np_ = validate_partition(simplex, [[0], [1, 2, 3]])
    e1 = N(1, 0, 0)
    nabla0, nabla1 = np_.nabla_parts
    bad = np_._replace(
        nabla_parts=(
            hull([v for v in nabla0.vertices if v != e1]),
            hull([*nabla1.vertices, e1]),
        ),
        delta_parts=(np_.delta_parts[0], hull([*np_.delta_parts[1].vertices, P(-1, 0, 0)])),
    )
    got = outcome(dual_nef_partition, bad)
    nb = nabla(bad)
    assert nb.vertices == nabla(np_).vertices
    labels = oracles._labels(nb, [p.vertices for p in bad.nabla_parts])
    rejection = oracles.nef_verdict(_coords(nb), labels, 3)
    assert got == ("raised", InvariantViolation, "dual partition failed validation", str(rejection))
    assert_the_memo_is_the_definitions(nb)
    corner = {e1, N(0, 1, 0), N(0, 0, 1)}
    cone = next(c for c, f in enumerate(nb.facets) if {nb.vertices[i] for i in f.incidence} == corner)
    s = sum(1 << i for i in labels[1])
    gt1 = face_fan(nb)._entries[cone, s & face_fan(nb).bits[cone]][2]
    assert [nb.vertices[v] for v in range(len(nb.vertices)) if gt1 >> v & 1] == [N(2, -1, -1)]


def test_every_entry_read_off_the_delta_parts_is_the_tables_entry(corpus):
    """On the nabla of every corpus nef-partition at r = 1..3 and of every
    tampered source whose nabla is reflexive, each entry that _read_off
    writes equals the entry the cone's table gives for that (cone, pattern)
    (``FaceFan._read``) on a fan of its own. On the corpus every (cone,
    part) is read off."""
    kinds = Counter()
    for k, np_ in enumerate(corpus_and_tampered_sources(corpus)):
        source = np_._replace()
        got = outcome(nabla, source)
        if got[0] == "raised" or not got[1].is_reflexive():
            continue
        nb = got[1]
        parts = duality._dual_parts(source, nb)
        duality._read_off(source, nb, parts)
        written = face_fan(nb)._entries
        fresh = face_fan(hull(list(nb.vertices)))
        assert fresh.cones == face_fan(nb).cones
        for key, entry in written.items():
            assert fresh._read(*key) == entry, (np_, key)
            kinds[entry if not entry else "lattice"] += 1
        if k < 175:
            masks = [sum(1 << i for i in part) for part in parts]
            assert {(c, s & bits) for c, bits in enumerate(fresh.bits) for s in masks} == set(written)
    assert kinds == {"lattice": 4664}
