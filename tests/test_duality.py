"""The mirror construction: nabla, the dual partition, and the check suite."""

import os
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from test_nefpart import _audit_inputs, _fresh, pairing_checks, shortcut_count

from nefdual import cli, duality, nefpart, polytope
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
from nefdual.errors import GeometryError, InvariantViolation
from nefdual.fan import face_fan
from nefdual.nefpart import (
    NefPartition,
    check_relations,
    enumerate_nef_partitions,
    validate_partition,
)
from nefdual.polytope import Point, Polytope, SPACE_N, hull, minkowski_sum

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


# The faster routes against the former ones kept in tests/oracles.py: the
# involution check that always rebuilds the double dual, and the audit that
# decides its two hull identities with hulls.


def outcome(fn, *args):
    """What a check did: its returned value, or the exception it raised."""
    try:
        return ("returned", fn(*args))
    except (GeometryError, InvariantViolation) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))


# The errors of the former psi cross-check, which the former routes in
# tests/oracles.py still raise (oracles.check_psi). The library checks psi
# against the delta parts once, in verify_delta_parts_from_dual, which fails
# whenever the cross-check would raise (see its docstring).
PSI_ERRORS = (
    "dual PL value disagrees with the pairing formula",
    "dual cone functional is not the negative of a delta part vertex",
)


def raised_psi_error(old):
    return old[:2] == ("raised", InvariantViolation) and old[2] in PSI_ERRORS


def corpus_partitions(corpus):
    for entry in corpus:
        if entry.reflexive and entry.polytope.ambient_dim in (2, 3):
            for r in (2, 3):
                yield from enumerate_nef_partitions(entry.polytope, r)


def test_involution_and_audit_match_the_rebuilding_routes_on_the_corpus(corpus):
    count = 0
    for np_ in corpus_partitions(corpus):
        result = run_full_duality(np_)
        assert result.all_passed
        assert result.checks["involution"] == oracles.verify_involution(np_, result.dual)
        for side in (np_, result.dual):
            assert outcome(oracles.assert_vertex_set_invariants, side) == outcome(
                oracles.assert_partition_invariants, side
            ) == ("returned", None)
        count += 1
    assert count == 163


def test_audit_failures_match_the_hull_route():
    np_ = octa_single_vertex_partition()
    # a delta part that lost a vertex of delta
    big = max(range(2), key=lambda i: len(np_.parts[i]))
    part_verts = np_.delta_parts[big].vertices
    lost = next(v for v in part_verts if not v.is_zero())
    shrunk = hull([v for v in part_verts if v != lost] + [P(0, 0, 0)])
    parts = list(np_.delta_parts)
    parts[big] = shrunk
    tampered = np_._replace(delta_parts=tuple(parts))
    # the indicator functions of one part twice
    doubled = np_._replace(phi=(np_.phi[0], np_.phi[0]))
    for bad in (tampered, doubled):
        new = outcome(oracles.assert_vertex_set_invariants, bad)
        assert new[0] == "raised" and new[1] is InvariantViolation
        assert new == outcome(oracles.assert_partition_invariants, bad)


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


def test_tampered_dual_fails_on_both_involution_routes():
    """Each tampered dual either gives the same outcome on both routes, a
    failing or raising check, or the former route raised the psi error; the
    involution then passes, as the datum does come back, and the relation
    check of the tampered dual fails."""
    split = Counter()
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        for bad in tampered_duals(dual):
            new = outcome(verify_involution, np_, bad)
            old = outcome(oracles.verify_involution, np_, bad)
            if new == old:
                assert new[0] == "raised" or not new[1].passed, (source.__name__, new)
                split["equal"] += 1
            else:
                assert raised_psi_error(old), (source.__name__, old)
                assert new[0] == "returned" and new[1].passed, (source.__name__, new)
                assert not check_relations(bad), source.__name__
                split["psi"] += 1
    assert split == {"equal": 4, "psi": 12}


def shrunk(poly):
    """``poly`` less its first nonzero vertex, with the origin added."""
    lost = next(v for v in poly.vertices if not v.is_zero())
    zero = Point((0,) * poly.ambient_dim, poly.space)
    return hull([v for v in poly.vertices if v != lost] + [zero])


def with_part(np_, field, i, poly):
    parts = list(getattr(np_, field))
    parts[i] = poly
    return np_._replace(**{field: tuple(parts)})


SUM_CHECKS = (
    (verify_polar_is_nabla_sum, oracles.verify_polar_is_nabla_sum),
    (verify_nabla_polar_is_delta_sum, oracles.verify_nabla_polar_is_delta_sum),
)


def sum_check_tampers(np_):
    """Each tampered partition with the index in SUM_CHECKS of the check
    that reads the tampered parts."""
    return [
        (with_part(np_, "nabla_parts", 0, np_.nabla_parts[1]), 0),
        (with_part(np_, "nabla_parts", 0, np_.delta_parts[0]), 0),
        (with_part(np_, "nabla_parts", 1, shrunk(np_.nabla_parts[1])), 0),
        (with_part(np_, "delta_parts", 0, shrunk(np_.delta_parts[0])), 1),
    ]


def test_tampered_parts_fail_both_sum_check_routes_alike():
    """A nabla part swapped for another nabla part or for a delta part, a
    nabla part shrunk and a delta part shrunk: each sum check gives the same
    CheckResult, or raises the same error, on both routes, and the check
    that reads the tampered parts fails."""
    for source in SOURCES:
        for np_ in (source(), dual_nef_partition(source())):
            for bad, failing in sum_check_tampers(np_):
                for k, (new_check, old_check) in enumerate(SUM_CHECKS):
                    new = outcome(new_check, bad)
                    assert new == outcome(old_check, bad), (source.__name__, k)
                    if k == failing:
                        assert new[0] == "raised" or not new[1].passed, (source.__name__, new)


def test_a_sum_that_is_a_polar_off_the_lattice_fails_the_nabla_check():
    """Nabla parts doubled and delta parts halved: the delta parts still sum
    to the polar of the doubled nabla, but that polar is not a lattice
    polytope, so the check fails on every route, as the lattice test of
    nabla's facet offsets finds."""
    for source in SOURCES:
        np_ = source()
        bad = np_._replace(
            nabla_parts=tuple(doubled(p) for p in np_.nabla_parts),
            delta_parts=tuple(scaled(p, F(1, 2)) for p in np_.delta_parts),
        )
        assert duality._is_polar_sum(nabla(bad), bad.delta_parts, nefpart._Pairings())
        new = verify_nabla_polar_is_delta_sum(bad)
        assert not new.passed
        assert new == oracles.polar_support_nabla_polar_is_delta_sum(bad)
        assert new == oracles.verify_nabla_polar_is_delta_sum(bad)


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


def test_relabeled_dual_passes_on_both_involution_routes():
    """A consistent relabeling of the dual is the same unlabeled datum."""
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        relabeled = swapped(dual, "parts", "phi", "delta_parts", "nabla_parts")
        check = verify_involution(np_, relabeled)
        assert check.passed
        assert check == oracles.verify_involution(np_, relabeled)


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


# The dual built from the source against the former dual_nef_partition kept
# in tests/oracles.py, which validates on nabla from scratch and builds every
# part by a hull. Polytope.__eq__ compares vertices only, so the parts are
# compared in full.


def polytope_data(poly):
    return (poly.space, poly.ambient_dim, poly.vertices, poly.affine_span, poly.facets)


def duality_outcome(np_):
    """What run_full_duality did: its six checks and the dual in full, or
    the error it raised."""
    got = outcome(run_full_duality, np_)
    if got[0] == "raised":
        return got
    result = got[1]
    dual = result.dual
    polys = (dual.delta, nabla(dual), *dual.delta_parts, *dual.nabla_parts)
    return (
        tuple(result.checks.items()),
        dual.parts,
        [(f.vertex_values, f.functionals) for f in dual.phi],
        [polytope_data(p) for p in polys],
    )


def both_routes(np_, monkeypatch, former=oracles.dual_nef_partition):
    """duality_outcome with a former dual_nef_partition, on a copy of
    ``np_`` that builds its own nabla and so its own fan, then with the
    library's."""
    with monkeypatch.context() as m:
        m.setattr(duality, "dual_nef_partition", former)
        old = duality_outcome(np_._replace())
    new = duality_outcome(np_)
    return new, old


def route_difference(new, old):
    """"equal" when both routes gave the same outcome, and "psi" when the
    former route raised the psi error where the run returns with
    delta_parts_from_dual failing; any other difference fails."""
    if new == old:
        return "equal"
    assert raised_psi_error(old), old
    assert new[0] != "raised" and not dict(new[0])["delta_parts_from_dual"].passed, new
    return "psi"


def test_the_dual_from_the_source_matches_the_dual_validated_from_scratch(corpus, monkeypatch):
    """Equal six CheckResults, parts, psi values and functionals, and every
    polytope of the dual equal in vertices, facets and span."""
    count = 0
    for np_ in _audit_inputs(corpus):
        new, old = both_routes(np_, monkeypatch)
        assert new == old, np_
        assert all(check.passed for _, check in new[0])
        count += 1
    # 175 corpus partitions, 15 + 15 on the 4-simplex, 1 on the 5-simplex, 127 on cross4
    assert count == 333


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


def test_tampered_sources_take_the_hull_path_and_match_the_former_dual(monkeypatch):
    """A delta part shrunk, grown out of delta or swapped for another; a
    base that is not the union of the delta parts (so the cover test
    refuses it and the double dual's base is a hull); and a nabla part that
    misses the origin. The run gives the same checks, dual or raised error
    as the former route, or returns with delta_parts_from_dual failing
    where the former route raised the psi error."""
    missing_origin = 0
    split = Counter()
    for source in SOURCES:
        np_ = source()
        missing_origin += sum(
            any(v.is_zero() for v in part.vertices) for part in np_.nabla_parts
        )
        for bad in hull_path_tampers(np_):
            new, old = both_routes(bad, monkeypatch)
            split[route_difference(new, old)] += 1
            assert new[0] == "raised" or not all(check.passed for _, check in new[0])
    assert missing_origin > 0
    assert split == {"equal": 7, "psi": 12}


# The dual whose PL functions are read off the delta parts against the
# former dual_nef_partition kept in tests/oracles.py, which builds a kernel
# for every cone of nabla's fan. Each cone of nabla's fan that gets a kernel
# in the library is one where the read-off fails; the expected set is
# computed here with the Fraction pairing of tests/oracles.py.


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


def test_the_dual_read_off_the_delta_parts_matches_the_kernel_route(corpus, monkeypatch):
    """Equal six CheckResults, parts, psi values and functionals, and every
    polytope of the dual equal in vertices, facets and span; no cone of
    nabla's fan gets a kernel."""
    count = 0
    for np_ in _audit_inputs(corpus):
        new, old = both_routes(np_, monkeypatch, oracles.kernel_dual_nef_partition)
        assert new == old, np_
        assert all(check.passed for _, check in new[0])
        assert kernel_cones(np_) == set() == read_off_failures(np_)
        count += 1
    # 175 corpus partitions, 15 + 15 on the 4-simplex, 1 on the 5-simplex, 127 on cross4
    assert count == 333


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


def test_tampered_delta_parts_take_the_kernel_and_match_the_kernel_route(monkeypatch):
    """A delta part swapped for another, shrunk, scaled by 2/3, grown by a
    point that ties with its minimiser on a cone, or of one dimension less:
    the cones where the read-off fails, and only those, get a kernel, and
    the run gives the same checks, dual or raised error as the kernel
    route, or returns with delta_parts_from_dual failing where the kernel
    route raised the psi error."""
    split = Counter()
    for source in SOURCES:
        np_ = source()
        for bad in kernel_path_tampers(np_):
            new, old = both_routes(bad, monkeypatch, oracles.kernel_dual_nef_partition)
            split[route_difference(new, old)] += 1
            assert new[0] == "raised" or not all(check.passed for _, check in new[0])
            assert kernel_cones(bad) == read_off_failures(bad) != set(), source.__name__
    assert split == {"equal": 4, "psi": 16}


# The dual is not audited again once it is decided, it is not cross-checked
# against the source, and the pairing checks read the table's minima: each
# against the tampered sources above.


def tampered_sources():
    for source in SOURCES:
        np_ = source()
        dual = dual_nef_partition(np_)
        yield from hull_path_tampers(np_)
        yield from kernel_path_tampers(np_)
        for side in (np_, dual):
            yield from (bad for bad, _ in sum_check_tampers(side))
        yield from tampered_duals(dual)


def test_the_audits_pass_on_every_dual_built_from_a_tampered_source():
    """Each dual that dual_nef_partition returns passes the audit of a
    validated partition and the former hull audit, which it no longer
    runs; on every such dual, and on every tampered source, the pairing
    checks agree with the full loop that pairs by dot products."""
    built = taken = total = 0
    for bad in tampered_sources():
        got = outcome(dual_nef_partition, bad)
        dual = got[1] if got[0] == "returned" else None
        if dual is not None:
            assert outcome(oracles.assert_vertex_set_invariants, dual) == outcome(
                oracles.assert_partition_invariants, dual
            ) == ("returned", None)
            built += 1
        checks = list(pairing_checks(bad, dual))
        total += len(checks)
        taken += shortcut_count(checks)
    # 87 tampered sources, of which 64 give a dual; 44 of the checks
    # take the full loop
    assert (built, taken, total) == (64, 278, 322)


def test_every_tampered_source_matches_both_former_duals_or_fails_delta_parts_from_dual(
    monkeypatch,
):
    """On each tampered source the run gives the same checks, dual or
    raised error as the former dual validated from scratch and as the
    kernel route, or returns with delta_parts_from_dual failing where both
    raised the psi error."""
    for former in (oracles.dual_nef_partition, oracles.kernel_dual_nef_partition):
        split = Counter()
        for bad in tampered_sources():
            new, old = both_routes(bad, monkeypatch, former)
            split[route_difference(new, old)] += 1
        assert split == {"equal": 38, "psi": 49}, former.__name__


# The duality read off one pairing table against the former pairing route
# kept in tests/oracles.py: the sum checks on a polar, the relation checks by
# a dot product per pairing and the read-off that paired on its own. The
# former route's convexity scan over every cone's functional is no longer
# on this path: the dual is decided on the fan's entries.

FORMER_PAIRING_ROUTE = (
    (duality, "check_relations", oracles.pair_min_check_relations),
    (duality, "verify_polar_is_nabla_sum", oracles.polar_support_polar_is_nabla_sum),
    (duality, "verify_nabla_polar_is_delta_sum", oracles.polar_support_nabla_polar_is_delta_sum),
    (duality, "_read_off", oracles.dot_read_off),
)


def pairing_outcome(np_):
    """duality_outcome, and the entry memo of nabla's fan when the run
    returned."""
    got = duality_outcome(np_)
    if got[0] == "raised":
        return got
    return got, face_fan(nabla(np_))._entries


def table_and_former_pairing_routes(np_, monkeypatch):
    """pairing_outcome on the former pairing route, on a copy of ``np_``
    that builds its own nabla and so its own fan, then on the library's."""
    with monkeypatch.context() as m:
        for module, name, former in FORMER_PAIRING_ROUTE:
            m.setattr(module, name, former)
        old = pairing_outcome(np_._replace())
    return pairing_outcome(np_), old


def test_the_pairing_table_matches_the_former_pairing_route_on_the_corpus(corpus, monkeypatch):
    """Equal six CheckResults, dual in full and entry memo of nabla's fan on
    every corpus nef-partition at r = 1..3."""
    count = 0
    for entry in corpus:
        if entry.reflexive:
            for r in (1, 2, 3):
                coords = [v.coords for v in entry.polytope.vertices]
                for np_ in enumerate_nef_partitions(_fresh(coords), r):
                    new, old = table_and_former_pairing_routes(np_, monkeypatch)
                    assert new == old, np_
                    assert all(check.passed for _, check in new[0][0])
                    count += 1
    assert count == 175


def test_the_pairing_table_matches_the_former_pairing_route_on_the_scale_inputs(
    scale_bench, monkeypatch
):
    """Alike on at most 48 partitions, evenly strided, of each
    ``bench/scale.py`` input at r = 2, 3."""
    count = 0
    for name in scale_bench.POLYTOPES:
        for r in (2, 3):
            found = enumerate_nef_partitions(scale_bench.fresh(name), r)
            for np_ in found[:: -(-len(found) // 48) or 1]:
                new, old = table_and_former_pairing_routes(np_, monkeypatch)
                assert new == old, (name, r, np_)
                assert all(check.passed for _, check in new[0][0])
                count += 1
    assert count == 432


def test_the_pairing_table_matches_the_former_pairing_route_on_the_tampered_sources(monkeypatch):
    """Alike on every tampered source: equal CheckResults, dual and entry
    memo, or the same error raised."""
    raised = Counter()
    count = 0
    for bad in tampered_sources():
        new, old = table_and_former_pairing_routes(bad, monkeypatch)
        assert new == old, bad
        if new[0] == "raised":
            raised[new[1].__name__] += 1
        count += 1
    assert count == 87
    assert raised == {"NotReflexive": 15, "DimensionMismatch": 12}


# The dual decided on the entries that _read_off writes into nabla's fan,
# against the former dual kept in tests/oracles.py, validated by the PL
# extension of each part's indicator and the convexity scan.


def corpus_and_tampered_sources(corpus):
    """Every corpus nef-partition at r = 1..3, then every tampered source."""
    for entry in corpus:
        if entry.reflexive:
            coords = [v.coords for v in entry.polytope.vertices]
            for r in (1, 2, 3):
                yield from enumerate_nef_partitions(_fresh(coords), r)
    yield from tampered_sources()


def dual_decision(route, np_):
    """The dual that ``route`` gives, with its psi functionals and its own
    nabla when it was kept, or the error it raised."""
    got = outcome(route, np_)
    if got[0] == "raised":
        return got
    dual = got[1]
    return (dual, [(f.functionals, f.is_convex, f.is_integral) for f in dual.phi], dual._nabla)


def test_the_dual_decided_on_the_fan_entries_matches_the_scan_route(corpus):
    """dual_nef_partition, whose validation reads the entries _read_off
    writes, and ``oracles.scan_dual_nef_partition`` on a copy of the source
    that builds its own nabla and fan give equal duals with equal psi
    functionals, or raise the same error, on every corpus nef-partition at
    r = 1..3 and every tampered source."""
    raised = Counter()
    count = 0
    for np_ in corpus_and_tampered_sources(corpus):
        new = dual_decision(dual_nef_partition, np_)
        assert new == dual_decision(oracles.scan_dual_nef_partition, np_._replace()), np_
        if new[0] == "raised":
            raised[new[1].__name__] += 1
        count += 1
    assert count == 175 + 87
    assert raised == {"NotReflexive": 15, "DimensionMismatch": 8}


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
