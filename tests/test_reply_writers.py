"""The CLI's reply writers against the routes they replace.

``report.json_text`` must write exactly what ``json.dumps(obj, indent=2)``
writes. The one coordinate writer ``fileio.point_terms``, which reads a
point's integer form, must write exactly what ``report.coord`` writes from
its ``Fraction`` coordinates; every report writes points through it, and
it is imported here as ``point_json``, the list a report holds.
``fileio.point_text`` joins its terms and must write exactly what
``format_rational`` writes. Every passing golden request is also pinned to
read no ``Point.coords`` at all.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import test_cli
from nefdual.cli import _parser, main
from nefdual.corpus import load_corpus
from nefdual.duality import dual_nef_partition
from nefdual.errors import GeometryError
from nefdual.fileio import (
    PolytopeParseError,
    file_to_canonical_map,
    format_rational,
    parse_polytope_file,
    parse_polytope_text,
    point_terms as point_json,
    point_text,
    write_polytope_text,
)
from nefdual.nefpart import enumerate_nef_partitions
from nefdual.polytope import SPACE_M, SPACE_N, Point
from nefdual.report import coord, json_text

DATA, FIX = test_cli.DATA, test_cli.FIX
PERFBENCH_GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden_cli.json"


def report_of(argv):
    """The report dict ``main`` would write for ``argv``, with the float
    ``timings`` it stamps."""
    args = _parser().parse_args([str(a) for a in argv])
    _, rep = args.func(args)
    assert isinstance(rep, dict)
    rep["timings"] = {"seconds": 0.012345678901234567}
    return rep


def perfbench_json_requests():
    """argv of every ``--json`` request of the benchmark's golden file, on
    the bundled file its key names (the seed-0 input is that file's points)."""
    corpus = json.loads((DATA / "corpus.json").read_text(encoding="utf-8"))
    files = {e["name"]: DATA / e["file"] for e in corpus["entries"]}
    keys = json.loads(PERFBENCH_GOLDEN.read_text(encoding="utf-8"))["requests"]
    out = []
    for key in sorted(keys):
        cmd, name, *rest = key.split(" ")
        if "--json" in rest:
            out.append([cmd, files[name], *rest])
    return out


REPORT_REQUESTS = (
    [argv for _, argv in test_cli.JSON_CASES.values()]
    + perfbench_json_requests()
    + [["nef-enumerate", DATA / "d2_square_big.poly", "-r", "2", "--json"]]
)


def test_the_report_requests_cover_the_goldens():
    assert len(test_cli.JSON_CASES) == 3
    assert len(REPORT_REQUESTS) > 20
    assert sum(argv[0] == "nef-dual" for argv in REPORT_REQUESTS) > 20


@pytest.mark.parametrize(
    "argv", REPORT_REQUESTS, ids=lambda argv: " ".join(str(a).rpartition("/")[2] for a in argv)
)
def test_json_text_writes_every_report_as_json_dumps_does(argv):
    rep = report_of(argv)
    assert json_text(rep) == json.dumps(rep, indent=2)


TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\t é☃\U0001d11e\ud800'),
    ),
    max_size=8,
)
LEAVES = st.one_of(
    TRICKY_TEXT,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from([[], (), {}]),
)
KEYS = st.one_of(TRICKY_TEXT, st.integers(-5, 5), st.booleans(), st.none(), st.floats(-2, 2))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TRICKY_TEXT, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=3),
        st.lists(st.lists(st.integers(), max_size=3), max_size=3),
    )


JSON_VALUES = st.recursive(LEAVES, containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_equals_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_on_empty_containers_at_every_depth():
    value = {"a": [], "b": {}, "c": [[], {}, ()], "d": [[[]], {"e": {"f": []}}]}
    assert json_text(value) == json.dumps(value, indent=2)


FLOATS = [
    0.0, -0.0, 1e-05, 3.4e-07, 1e22, 0.012345678901234567, 1.5, -2.25e-300,
    float("nan"), float("inf"), float("-inf"),
]


def test_json_text_writes_floats_as_json_dumps_does():
    """Finite floats are written by ``float.__repr__``, NaN and the
    infinities by ``json.dumps``; both are byte-identical to it, at top
    level and nested."""
    for x in FLOATS:
        for value in (x, [x], [1, x], {"timings": {"seconds": x}}, {"a": [{"b": x}, x]}):
            assert json_text(value) == json.dumps(value, indent=2), value


def test_a_json_reply_builds_no_json_encoder(capsys, monkeypatch):
    """``--json`` writes the whole report, its float ``timings`` included,
    with no ``JSONEncoder``."""
    built = []
    original = json.encoder.JSONEncoder.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(json.encoder.JSONEncoder, "__init__", counting_init)
    assert main(["nef-dual", str(DATA / "d2_cross.poly"), "--parts", "0,2;1,3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["timings"]["seconds"], float)
    assert built == []
    json.dumps({"seconds": 0.5}, indent=2)
    assert len(built) == 1  # the count sees an encoder the stdlib builds


def former_text(p, sep=" "):
    return sep.join(format_rational(c) for c in p.coords)


def former_json(p):
    return [coord(c) for c in p.coords]


def assert_written_as_before(points):
    for p in points:
        assert point_text(p) == former_text(p)
        assert point_text(p, ", ") == former_text(p, ", ")
        assert point_json(p) == former_json(p)


def bundled_and_fixture_polytopes():
    for path in sorted(DATA.glob("*.poly")) + sorted(FIX.glob("*.poly")):
        try:
            yield parse_polytope_file(path)[0]
        except PolytopeParseError:
            pass


def test_point_writers_on_every_bundled_and_fixture_polytope_and_its_polar():
    seen = 0
    for poly in bundled_and_fixture_polytopes():
        assert_written_as_before(poly.vertices)
        try:
            polar = poly.polar_dual()
        except GeometryError:
            continue
        assert_written_as_before(polar.vertices)
        assert write_polytope_text(polar) == "\n".join(
            [f"{polar.ambient_dim} {len(polar.vertices)}"]
            + [former_text(v) for v in polar.vertices]
        ) + "\n"
        seen += 1
    assert seen >= 13


def test_point_writers_on_the_corpus_dualities():
    dualities = 0
    for entry in load_corpus():
        if not entry.reflexive:
            continue
        for r in (1, 2):
            for np in enumerate_nef_partitions(entry.polytope, r):
                dual = dual_nef_partition(np)
                assert_written_as_before(dual.delta.vertices)
                for part in (*np.nabla_parts, *dual.nabla_parts):
                    assert_written_as_before(part.vertices)
                dualities += 1
    assert dualities == 70


@pytest.mark.parametrize(
    "coords,text,as_json",
    [
        ((Fraction(1, 2), Fraction(1, 3)), "1/2 1/3", ["1/2", "1/3"]),
        ((Fraction(2, 3), Fraction(1, 6), Fraction(-5)), "2/3 1/6 -5", ["2/3", "1/6", -5]),
        ((Fraction(0), Fraction(-3, 4)), "0 -3/4", [0, "-3/4"]),
        ((Fraction(7), Fraction(-2)), "7 -2", [7, -2]),
    ],
)
def test_a_coordinate_reduces_further_than_the_common_denominator(coords, text, as_json):
    p = Point(coords)
    assert point_text(p) == text
    assert point_json(p) == as_json
    assert_written_as_before([p, -p, p.scale(Fraction(3, 5))])


RATIONALS = st.fractions(max_denominator=60).filter(lambda x: abs(x) < 10**6) | st.integers(
    -(2**70), 2**70
).map(Fraction)


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=5), st.sampled_from([SPACE_M, SPACE_N]))
def test_point_writers_on_random_rational_points(coords, space):
    p = Point(coords, space)
    from_form = Point._from_form(p._num, p._den, space)
    assert_written_as_before([p, from_form])


def test_file_to_canonical_map_keeps_its_messages():
    poly, pts = parse_polytope_text("2 5\n1 0\n0 1\n-1 0\n0 -1\n0 0\n")
    with pytest.raises(PolytopeParseError) as info:
        file_to_canonical_map(poly, pts)
    assert str(info.value) == "file point #4 ('0', '0') is not a vertex"
    poly, pts = parse_polytope_text("2 4\n1 0\n0 1\n-1 -1\n1 0\n")
    with pytest.raises(PolytopeParseError) as info:
        file_to_canonical_map(poly, pts)
    assert str(info.value) == "file point #3 repeats an earlier vertex"
    poly, pts = parse_polytope_text("2 4\n1/2 0\n0 1\n-1 -1\n1/4 1/3\n")
    with pytest.raises(PolytopeParseError) as info:
        file_to_canonical_map(poly, pts)
    assert str(info.value) == "file point #3 ('1/4', '1/3') is not a vertex"


def test_passing_golden_requests_read_no_point_coords(capsys, monkeypatch):
    """Every golden request, text and JSON, gives its golden output with no
    read of ``Point.coords``: its replies are written from the points'
    integer forms. (A failing check's witness may still read them.)"""

    def no_coords(self):
        raise AssertionError("a reply read Point.coords")

    monkeypatch.setattr(Point, "coords", property(no_coords))
    cases = {**test_cli.TEXT_CASES, **test_cli.JSON_CASES}
    for name, (want_code, argv) in sorted(cases.items()):
        code, out, err = test_cli.run_cli(capsys, argv)
        assert (code, err) == (want_code, ""), name
        if name.endswith(".json"):
            rep = test_cli.normalize_report(json.loads(out))
            assert test_cli.pairs(rep) == test_cli.golden_pairs(name)
        else:
            assert out == (test_cli.GOLDEN / name).read_text(encoding="utf-8")
    for argv in perfbench_json_requests():
        assert main([str(a) for a in argv]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["valid"] is True
