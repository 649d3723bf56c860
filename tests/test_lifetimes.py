"""Object lifetimes: every result is freed by reference counting.

A polytope owns its face fan, and with it the fan's entry memo and cone
tables; the fan keeps its base's vertices and facets and refers back to it
weakly, so no reference cycle forms. Dropping the last reference to a
duality, an enumeration, a validation or a CLI reply frees it at once,
with no work left to the cyclic collector. A fan outlives its polytope and
answers as before, and Δ's memo serves every later call on Δ.
"""

import gc
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
import test_cli
from test_duality import kernel_cones, read_off_failures

from nefdual.cli import _parser, main
from nefdual.corpus import load_corpus
from nefdual.errors import DimensionMismatch
from nefdual.duality import run_full_duality
from nefdual.fan import FaceFan, face_fan, pl_from_vertex_values, support_polytope
from nefdual.nefpart import NefPartition, Rejection, enumerate_nef_partitions, validate_partition
from nefdual.polytope import Point, Polytope, hull, pair

DATA, FIX = test_cli.DATA, test_cli.FIX
SIMPLEX5 = [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(-1,) * 5]
OCTAHEDRON = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]


def fresh(coords):
    return hull([Point(c) for c in coords])


def corpus_coords():
    """The vertices of every reflexive corpus polytope, as plain tuples."""
    return [
        [v.coords for v in e.polytope.vertices] for e in load_corpus() if e.reflexive
    ]


def dualities(coords, r):
    """Enumerate on a fresh polytope and dualize every partition found."""
    found = enumerate_nef_partitions(fresh(coords), r)
    for np_ in found:
        assert run_full_duality(np_).all_passed
    return len(found)


def enumeration(coords, r):
    return len(enumerate_nef_partitions(fresh(coords), r))


def simplex5_cubics():
    assert run_full_duality(validate_partition(fresh(SIMPLEX5), [[0, 1, 2], [3, 4, 5]])).all_passed


def rejection():
    square = fresh([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert isinstance(validate_partition(square, [[0], [1, 2, 3]]), Rejection)


def request(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


# Every subcommand, text and --json, with exit codes 0, 1 and 2.
CLI_REQUESTS = (
    list(test_cli.TEXT_CASES.values())
    + list(test_cli.JSON_CASES.values())
    + [(code, argv) for code, argv, _ in test_cli.CONTRACT]
    + [
        (0, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0,2;1,3", "--json"]),
        (1, ["nef-validate", FIX / "halfpoint_triangle.poly", "--parts", "0;1,2", "--json"]),
        (1, ["nef-dual", DATA / "d2_square_big.poly", "--parts", "0,1;2,3", "--json"]),
        (1, ["nef-enumerate", DATA / "d2_square_big.poly", "-r", "2", "--json"]),
        (0, ["nef-dual", DATA / "d3_octahedron.poly", "--parts", "0;1,2,3,4,5", "--json"]),
        (0, ["nef-enumerate", DATA / "d3_octahedron.poly", "-r", "3"]),
    ]
)


def test_no_request_leaves_cyclic_garbage():
    """With the collector off, each duality, enumeration, validation and
    CLI request leaves nothing for it once its results are dropped:
    ``gc.collect()`` finds no unreachable object after each of them.

    Argparse's own exit-2 path (an unknown command, a bad option) is the
    standard library's and is left out, as is the parser's one build per
    process, whose help formatters argparse leaves in cycles: the parser is
    built before the collector is switched off."""
    _parser()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        runs = 0
        for coords in corpus_coords():
            for r in (1, 2, 3):
                runs += dualities(coords, r)
                assert gc.collect() == 0, (coords, r)
                enumeration(coords, r)
                assert gc.collect() == 0, (coords, r)
        assert runs == 175
        simplex5_cubics()
        assert gc.collect() == 0
        rejection()
        assert gc.collect() == 0
        codes = set()
        for code, argv in CLI_REQUESTS:
            assert request(argv) == code, argv
            assert gc.collect() == 0, argv
            codes.add(code)
        assert codes == {0, 1, 2}
    finally:
        if enabled:
            gc.enable()


def test_a_fan_outlives_its_polytope():
    """A fan and a PL function on it answer alike before and after the
    polytope they were built on is freed; ``base`` is then an equal
    polytope made from the kept vertices and facets, with no hull."""
    twin = fresh(OCTAHEDRON)
    p = fresh(OCTAHEDRON)
    fan = face_fan(p)
    f = pl_from_vertex_values(fan, [1, 0, 0, 0, 0, 0])
    assert f.is_convex
    probes = [Point((a, b, c)) for a in (-2, -1, 0, 1) for b in (-1, 0, 2) for c in (-1, 0, 1)]
    probes.append(Point(("1/2", "-1/3", "1/5")))
    other = face_fan(fresh(OCTAHEDRON))

    def answers():
        return (
            fan == other, hash(fan) == hash(other), fan.base == twin, hash(fan.base),
            fan.base.facets, [fan.locate(x) for x in probes], [f.evaluate(x) for x in probes],
            [fan.cone_functional(c.index, [(-1) ** i for i in range(len(c.vertex_indices))])
             for c in fan.cones],
            support_polytope(f).vertices, f == pl_from_vertex_values(other, f.vertex_values),
        )

    assert fan.base is p
    assert hash(fan) == hash(("FaceFan", p))
    living = answers()
    del p
    gc.collect()
    assert fan._base() is None
    assert fan.base is not twin and fan.base._points is None
    assert fan.base.facets == twin.facets and hash(fan.base) == hash(twin)
    assert answers() == living
    assert living[:3] == (True, True, True)


def test_a_fan_without_its_polytope_locates_with_no_polytope(monkeypatch):
    """Once the base is freed, ``cone_contains``, ``locate`` and
    ``evaluate`` decide on the fan's kept cones: no ``Polytope`` is
    constructed, the answers are those given while the base lived, which
    are the definition's (a nonzero x is in the cone over facet F iff it
    pairs negatively with F's normal and its multiple on F's hyperplane
    lies in the polytope), and a point of the other space or dimension is
    still a ``DimensionMismatch``."""
    twin = fresh(OCTAHEDRON)
    p = fresh(OCTAHEDRON)
    fan = face_fan(p)
    f = pl_from_vertex_values(fan, [1, 0, 0, 0, 0, 0])
    probes = [Point((a, b, c)) for a in (-2, -1, 0, 1) for b in (-1, 0, 2) for c in (-1, 0, 1)]
    probes += [Point(("1/2", "-1/3", "1/5")), Point(("-3/7", "0", "2/3"))]
    wrong = [Point((1, 0, 0), "N"), Point((1, 0))]

    def answers():
        contained = [[fan.cone_contains(c, x) for c in fan.cones] for x in probes]
        return contained, [fan.locate(x) for x in probes], [f.evaluate(x) for x in probes]

    def mismatches():
        for x in wrong:
            with pytest.raises(DimensionMismatch):
                fan.cone_contains(fan.cones[0], x)
            with pytest.raises(DimensionMismatch):
                fan.locate(x)

    def definition(cone, x):
        s = pair(x, cone.normal)
        return x.is_zero() or s < 0 and twin.contains(x.scale(-cone.offset / s))

    living = answers()
    mismatches()
    assert living[0] == [[definition(c, x) for c in fan.cones] for x in probes]
    assert living[1] == [fan.cones[row.index(True)] for row in living[0]]
    del p
    gc.collect()
    assert fan._base() is None
    built = []
    original = Polytope.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Polytope, "__init__", counting)
    assert answers() == living
    mismatches()
    assert built == []
    fan.base
    assert len(built) == 1


def test_the_memo_of_delta_serves_every_later_call(monkeypatch):
    """On one Δ: enumerate at r = 2, drop every result and collect, then
    enumerate at r = 3, validate every r = 2 partition again and dualize
    each. Δ keeps the one fan it got first, no (cone, pattern) entry of it
    is read off a table twice, and the cones of ∇ that the read-off
    answers get no table in the dual's validation."""
    delta = fresh(OCTAHEDRON)
    built = []
    reads = []
    original_init, original_read = FaceFan.__init__, FaceFan._read

    def counting_init(self, base):
        built.append(base is delta)
        original_init(self, base)

    def recording_read(self, c, pattern):
        if self.vertices is delta.vertices:
            reads.append((c, pattern))
        return original_read(self, c, pattern)

    monkeypatch.setattr(FaceFan, "__init__", counting_init)
    monkeypatch.setattr(FaceFan, "_read", recording_read)
    found = enumerate_nef_partitions(delta, 2)
    specs = [[sorted(part) for part in np_.parts] for np_ in found]
    assert len(specs) == 31
    del found
    gc.collect()
    first = len(reads)
    assert len(enumerate_nef_partitions(delta, 3)) == 90
    for spec in specs:
        np_ = validate_partition(delta, spec)
        assert isinstance(np_, NefPartition)
        assert run_full_duality(np_).all_passed
        assert kernel_cones(np_) == read_off_failures(np_)
    assert built.count(True) == 1
    assert face_fan(delta).vertices is delta.vertices
    assert first > 0 and len(reads) == len(set(reads))
