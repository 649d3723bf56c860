"""Per-object caches: polar, reflexivity, face fan and nabla are built once.

Every cached value must be the identical object on a repeated call, and a
computation on objects whose caches are already filled must give the same
answer as one on freshly built objects. The face fan's memo of
(cone, pattern) entries is one such cache, shared by validation and
enumeration.
"""

import pytest

from nefdual.duality import nabla, run_full_duality
from nefdual.fan import FaceFan, face_fan
from nefdual.nefpart import (
    NefPartition,
    Rejection,
    enumerate_nef_partitions,
    validate_partition,
)
from nefdual.polytope import Point, hull

from oracles import _set_partitions


def octahedron():
    return hull([Point(c) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]])


def duality_record(result):
    """Everything run_full_duality reports, as plain comparable data."""
    return (
        [v.coords for v in result.nabla.vertices],
        [[v.coords for v in p.vertices] for p in result.source.nabla_parts],
        [sorted(p) for p in result.dual.parts],
        [v.coords for v in result.dual.delta.vertices],
        {name: (c.passed, str(c.witness), c.detail) for name, c in result.checks.items()},
    )


def test_repeated_calls_return_the_identical_object():
    p = octahedron()
    assert p.polar_dual() is p.polar_dual()
    assert p.is_reflexive() is p.is_reflexive() is True
    assert face_fan(p) is face_fan(p)
    np_ = validate_partition(p, [[0], [1, 2, 3, 4, 5]])
    assert np_.fan is face_fan(p)
    assert nabla(np_) is nabla(np_)


def test_a_polar_is_not_preset_to_its_source():
    p = octahedron()
    polar = p.polar_dual()
    assert polar._polar is None
    double = polar.polar_dual()
    assert double == p and double is not p
    assert double._polar is None


def test_validation_and_enumeration_build_no_polar():
    """Nothing in validation reads the polar, so none is built and cached."""
    accepted = octahedron()
    assert isinstance(validate_partition(accepted, [[0], [1, 2, 3, 4, 5]]), NefPartition)
    square = hull([Point(c) for c in [(1, 1), (1, -1), (-1, 1), (-1, -1)]])
    assert isinstance(validate_partition(square, [[0], [1, 2, 3]]), Rejection)
    enumerated = octahedron()
    assert len(enumerate_nef_partitions(enumerated, 2)) == 31
    for p in (accepted, square, enumerated):
        assert p._polar is None


def test_run_full_duality_on_cold_and_warm_objects_agrees():
    parts = [[0, 3], [1, 4], [2, 5]]
    cold = run_full_duality(validate_partition(octahedron(), parts))
    warm_delta = octahedron()
    warm_delta.polar_dual()
    warm_np = validate_partition(warm_delta, parts)
    first = run_full_duality(warm_np)
    second = run_full_duality(warm_np)  # nabla, polars and fans all cached now
    assert second.nabla is first.nabla
    assert duality_record(cold) == duality_record(first) == duality_record(second)
    assert cold.all_passed



@pytest.mark.parametrize("name,r", [("cube", 2), ("hexagon", 3), ("octahedron", 2)])
def test_validation_on_a_cold_fan_and_on_one_warmed_by_enumeration_agrees(
    corpus_by_name, monkeypatch, name, r
):
    """Validation on a fan whose entries enumeration has read gives what it
    gives on a fresh fan, and reads none of those (cone, pattern) entries
    off a table again: each entry it reads is read once, and fewer are read
    than on the fresh fans (none on the hexagon and the octahedron)."""
    coords = [v.coords for v in corpus_by_name[name].polytope.vertices]
    warm = hull([Point(c) for c in coords])
    enumerate_nef_partitions(warm, r)  # builds the tables of the cones the search reads
    fan = face_fan(warm)
    assert any(table is not None for table in fan._kernels)
    decided = set(fan._entries)
    reads = {True: [], False: []}
    original_read = FaceFan._read

    def recording_read(self, c, pattern):
        reads[self is fan].append((c, pattern))
        return original_read(self, c, pattern)

    monkeypatch.setattr(FaceFan, "_read", recording_read)
    for cand in _set_partitions(len(coords), r):
        cold = validate_partition(hull([Point(c) for c in coords]), cand)
        again = validate_partition(warm, cand)
        assert again == cold
        assert str(again) == str(cold)
        if isinstance(cold, NefPartition):
            assert [f.functionals for f in again.phi] == [f.functionals for f in cold.phi]
            assert again.nabla_parts == cold.nabla_parts
    assert not decided & set(reads[True])
    assert len(reads[True]) == len(set(reads[True])) < len(set(reads[False]))
