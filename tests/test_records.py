"""The package's record types: what importing them costs, and that each
behaves as the frozen dataclass it replaced did.

Facet, LinearEquality, Cone, Rejection, RelationReport, CheckResult,
DualityResult and CorpusEntry are named tuples; NefPartition is a frozen
class with slots. The expected reprs below are those the dataclasses gave.
"""

import os
import subprocess
import sys

import pytest

from nefdual.corpus import corpus_entry
from nefdual.duality import CheckResult, nabla, run_full_duality
from nefdual.fan import face_fan
from nefdual.nefpart import NefPartition, Rejection, RelationReport, check_relations, validate_partition
from nefdual.polytope import Point, hull

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["nefdual", "nefdual.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """In a fresh interpreter: pytest itself imports both."""
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"importlib.import_module({module!r})\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _square():
    return hull([Point(c) for c in [(1, 0), (0, 1), (-1, 0), (0, -1)]])


@pytest.fixture(scope="module")
def instances():
    square = _square()
    np_ = validate_partition(square, [[0, 1], [2, 3]])
    result = run_full_duality(np_)
    return {
        "Facet": square.facets[0],
        "LinearEquality": hull([Point((1, 1)), Point((-1, -1))]).affine_span[0],
        "Cone": face_fan(square).cones[0],
        "Rejection": validate_partition(square, [[0, 1], [1, 2, 3]]),
        "Rejection_default": Rejection("NotCovering"),
        "RelationReport": check_relations(np_),
        "CheckResult": result.checks["involution"],
        "CheckResult_default": CheckResult("c", False),
        "DualityResult": result,
        "CorpusEntry": corpus_entry("cross2d"),
        "NefPartition": np_,
    }


DATACLASS_REPRS = {
    "Facet": "Facet(normal=Point((-1, -1), N), offset=Fraction(1, 1), incidence=(2, 3))",
    "LinearEquality": "LinearEquality(normal=Point((-1, 1), N), value=Fraction(0, 1))",
    "Cone": "Cone(index=0, normal=Point((-1, -1), N), offset=Fraction(1, 1), vertex_indices=(2, 3))",
    "Rejection": "Rejection(reason='NotDisjoint', part=1, cone=None, vertex=1, detail='also in part 0')",
    "Rejection_default": "Rejection(reason='NotCovering', part=None, cone=None, vertex=None, detail='')",
    "RelationReport": (
        "RelationReport(matrix=((Fraction(-1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-1, 1))),"
        " passed=True, violations=(), phi_consistent=True)"
    ),
    "CheckResult": "CheckResult(name='involution', passed=True, witness=None, detail='')",
    "CheckResult_default": "CheckResult(name='c', passed=False, witness=None, detail='')",
    "DualityResult": (
        "DualityResult(source=NefPartition(r=2, parts=[[0, 1], [2, 3]], delta=Polytope(M, dim 2 in R^2,"
        " 4 vertices)), nabla=Polytope(N, dim 2 in R^2, 6 vertices), dual=NefPartition(r=2, parts=[[3, 4,"
        " 5], [0, 1, 2]], delta=Polytope(N, dim 2 in R^2, 6 vertices)), checks={'polar_is_nabla_sum':"
        " CheckResult(name='polar_is_nabla_sum', passed=True, witness=None, detail=''),"
        " 'nabla_polar_is_delta_sum': CheckResult(name='nabla_polar_is_delta_sum', passed=True,"
        " witness=None, detail='nabla polar is a lattice polytope'), 'nabla_reflexive':"
        " CheckResult(name='nabla_reflexive', passed=True, witness=None, detail=''), 'pairing_relations':"
        " CheckResult(name='pairing_relations', passed=True, witness=None, detail='pairing minima on both"
        " sides'), 'delta_parts_from_dual': CheckResult(name='delta_parts_from_dual', passed=True,"
        " witness=None, detail=''), 'involution': CheckResult(name='involution', passed=True,"
        " witness=None, detail='')})"
    ),
    "CorpusEntry": (
        "CorpusEntry(name='cross2d', polytope=Polytope(M, dim 2 in R^2, 4 vertices), file_points=(Point((1,"
        " 0), M), Point((0, 1), M), Point((-1, 0), M), Point((0, -1), M)), partition_specs=('0,1,2,3',"
        " '0,2;1,3', '0,1;2,3', '0;2;1,3'), reflexive=True)"
    ),
    "NefPartition": "NefPartition(r=2, parts=[[0, 1], [2, 3]], delta=Polytope(M, dim 2 in R^2, 4 vertices))",
}

# A public field of each, to try to assign.
FIELD = {
    "Facet": "offset",
    "LinearEquality": "value",
    "Cone": "index",
    "Rejection": "reason",
    "RelationReport": "passed",
    "CheckResult": "passed",
    "DualityResult": "checks",
    "CorpusEntry": "name",
    "NefPartition": "parts",
}


@pytest.mark.parametrize("name", sorted(DATACLASS_REPRS))
def test_repr_is_the_dataclass_one(instances, name):
    assert repr(instances[name]) == DATACLASS_REPRS[name]


@pytest.mark.parametrize("name", sorted(FIELD))
def test_fields_cannot_be_assigned(instances, name):
    obj = instances[name]
    before = getattr(obj, FIELD[name])
    with pytest.raises(AttributeError):
        setattr(obj, FIELD[name], None)
    assert getattr(obj, FIELD[name]) is before


def test_defaults_and_truth_values():
    rej = Rejection("NotCovering")
    assert (rej.part, rej.cone, rej.vertex, rej.detail) == (None, None, None, "")
    check = CheckResult("c", True)
    assert (check.witness, check.detail) == (None, "")
    assert bool(CheckResult("c", True)) and not CheckResult("c", False)
    one = ((-1,),)
    assert RelationReport(one, True, (), True)
    assert not RelationReport(one, False, (), True)
    assert not RelationReport(one, True, (), False)


def test_nef_partition_compares_without_its_nabla_and_is_no_tuple():
    np_ = validate_partition(_square(), [[0, 1], [2, 3]])
    nabla(np_)
    copy = np_._replace()
    assert np_._nabla is not None and copy._nabla is None
    assert copy == np_ and hash(copy) == hash(np_)
    assert all(getattr(copy, f) is getattr(np_, f) for f in NefPartition._fields)

    swapped = np_._replace(delta_parts=np_.delta_parts[::-1])
    assert swapped != np_ and swapped.delta_parts == np_.delta_parts[::-1]
    assert all(getattr(swapped, f) is getattr(np_, f) for f in NefPartition._fields if f != "delta_parts")
    assert np_ != tuple(getattr(np_, f) for f in NefPartition._fields)

    with pytest.raises(TypeError):
        len(np_)
    with pytest.raises(TypeError):
        iter(np_)
    with pytest.raises(AttributeError):
        del np_.delta
    with pytest.raises(TypeError):
        np_._replace(_nabla=None)
