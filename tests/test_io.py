"""File format round-trips, partition specs, and the JSON report shape."""

import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_cli_fuzz import NOISE, coordinates, garble

from nefdual.corpus import polytope_file_text
from nefdual.duality import run_full_duality
from nefdual.fileio import (
    PolytopeParseError,
    file_to_canonical_map,
    format_rational,
    parse_partition_spec,
    parse_polytope_text,
    write_polytope_text,
)
from nefdual.nefpart import validate_partition
from nefdual.polytope import Point, hull
from nefdual.report import SCHEMA, partition_report

F = Fraction


def test_parse_simple_file():
    poly, pts = parse_polytope_text("2 3\n1 0\n0 1\n-1 -1\n")
    assert len(pts) == 3
    assert pts[0] == Point((1, 0))
    assert len(poly.vertices) == 3


def test_parse_skips_comments_and_blanks():
    text = "# a triangle\n\n2 3\n# body next\n1 0\n0 1\n-1 -1\n"
    poly, _ = parse_polytope_text(text)
    assert len(poly.vertices) == 3


def test_parse_rational_tokens():
    poly, pts = parse_polytope_text("2 3\n1/2 0\n0 1\n-1 -1\n")
    assert pts[0] == Point((F(1, 2), F(0)))
    assert not poly.is_lattice()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "2\n1 0\n",
        "2 x\n1 0\n",
        "0 1\n\n",
        "2 -1\n",
        "2 2\n1 0\n",
        "2 2\n1 0\n0 1\n-1 -1\n",
        "2 2\n1 0 0\n0 1\n",
        "2 2\n1 0\n0 a\n",
        "2 2\n1 0\n0 1/0\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(PolytopeParseError):
        parse_polytope_text(text)


def test_parse_coordinate_grammar_accepts_signed_integers_and_fractions():
    _, pts = parse_polytope_text("2 3\n+1 -3/4\n007 0/5\n-1 +2/6\n")
    assert [p.coords for p in pts] == [(1, F(-3, 4)), (7, 0), (-1, F(1, 3))]


@pytest.mark.parametrize(
    "token",
    ["1e2", "0.5", "1_0", ".5", "1.", "1e99999999", "1/-2", "1/2/3", "1/", "/2",
     "+-1", "inf", "nan", "\u0661", "1/\u0662",
     pytest.param("1" * 5000, id="5000-digit integer"),
     pytest.param("1/" + "3" * 5000, id="5000-digit denominator")],
)
def test_parse_rejects_coordinates_outside_the_grammar(token):
    """Only ``[+-]?digits(/digits)?`` in ASCII; in particular no exponent, so
    a short token cannot make the parser build a huge integer."""
    with pytest.raises(PolytopeParseError, match="bad coordinate"):
        parse_polytope_text(f"2 3\n{token} 0\n0 1\n-1 -1\n")


def _fraction_point(tokens):
    """The point of a coordinate line by the former route: each token through
    the grammar, then ``Fraction(token)``, then ``Point`` of the Fractions."""
    coords = []
    for token in tokens:
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token):
            raise PolytopeParseError(f"bad coordinate {token!r}")
        try:
            coords.append(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise PolytopeParseError(f"bad coordinate {token!r}") from exc
    return Point(coords)


def _form(p):
    return p._num, p._den, p.space, p.coords


def _outcome(route, tokens):
    try:
        return "ok", _form(route(tokens))
    except PolytopeParseError as exc:
        return "error", str(exc)


def _parsed_point(tokens):
    _, pts = parse_polytope_text(f"{len(tokens)} 1\n{' '.join(tokens)}\n")
    return pts[0]


CORPUS_FILES = sorted(f.name for f in resources.files("nefdual").joinpath("data").iterdir() if f.name.endswith(".poly"))
FIXTURES = Path(__file__).parent / "fixtures"


def _coordinate_lines(text):
    lines = [line.split() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    return lines[1:]


@pytest.mark.parametrize("filename", CORPUS_FILES)
def test_corpus_coordinates_parse_as_through_fraction(filename):
    text = polytope_file_text(filename)
    _, pts = parse_polytope_text(text)
    assert [_form(p) for p in pts] == [_form(_fraction_point(t)) for t in _coordinate_lines(text)]


@pytest.mark.parametrize("filename", sorted(f.name for f in FIXTURES.glob("*.poly")))
def test_fixture_coordinate_lines_parse_as_through_fraction(filename):
    text = (FIXTURES / filename).read_text(encoding="utf-8", errors="replace")
    for tokens in _coordinate_lines(text):
        assert _outcome(_parsed_point, tokens) == _outcome(_fraction_point, tokens)


@pytest.mark.parametrize(
    "token",
    ["0", "-0", "+0", "007", "-12/8", "+2/6", "3/3", "0/5", "-0/7", "1/0", "0/0", "12345678901234567890/6",
     pytest.param("1" * 5000, id="5000-digit integer"),
     pytest.param("1/" + "3" * 5000, id="5000-digit denominator")],
)
def test_coordinate_tokens_parse_as_through_fraction(token):
    for tokens in ([token], [token, "1/2"], ["-5/3", token, "7"]):
        assert _outcome(_parsed_point, tokens) == _outcome(_fraction_point, tokens)


@st.composite
def fuzz_tokens(draw):
    """Coordinates as the CLI fuzz test draws them, garbled half the time."""
    token = draw(coordinates())
    return garble(draw, token, NOISE) if draw(st.booleans()) else token


@settings(max_examples=300, deadline=None)
@given(st.lists(fuzz_tokens(), min_size=1, max_size=3))
def test_fuzz_tokens_parse_as_through_fraction(tokens):
    assume(all(t.split() == [t] for t in tokens) and not tokens[0].startswith("#"))
    assert _outcome(_parsed_point, tokens) == _outcome(_fraction_point, tokens)


@pytest.mark.parametrize(
    "header",
    ["\u0662 4", "2 \u0664", "2 0_4", "2 +4", "+2 4", "2 4.0", "2 1e1",
     pytest.param("2 " + "4" * 5000, id="5000-digit count")],
)
def test_parse_header_takes_ascii_integers_only(header):
    """Both header fields follow the partition-index grammar ``-?digits`` in
    ASCII, as coordinates do theirs."""
    with pytest.raises(PolytopeParseError, match="header must be 'd n'"):
        parse_polytope_text(f"{header}\n1 0\n0 1\n-1 0\n0 -1\n")


def test_parse_header_still_reads_leading_zeros_and_reports_nonpositive_counts():
    poly, pts = parse_polytope_text("02 004\n1 0\n0 1\n-1 0\n0 -1\n")
    assert len(pts) == 4 and len(poly.vertices) == 4
    with pytest.raises(PolytopeParseError, match="dimension must be positive"):
        parse_polytope_text("-2 4\n")


@pytest.mark.parametrize(
    "spec",
    ["0,\u00b2", "\u0661", "0,-\u00b2", "+1",
     pytest.param("0;" + "1" * 5000, id="5000-digit index")],
)
def test_partition_spec_rejects_non_ascii_digits_and_overlong_indices(spec):
    with pytest.raises(PolytopeParseError, match="bad index"):
        parse_partition_spec(spec, 4)


def test_write_then_parse_round_trips(corpus):
    for entry in corpus:
        text = write_polytope_text(entry.polytope)
        reparsed, _ = parse_polytope_text(text)
        assert reparsed == entry.polytope
        # canonical writes are a fixed point
        assert write_polytope_text(reparsed) == text


def test_file_order_is_preserved_separately_from_canonical():
    # file order deliberately differs from canonical (lexicographic) order
    text = "2 4\n1 0\n0 1\n-1 0\n0 -1\n"
    poly, pts = parse_polytope_text(text)
    mapping = file_to_canonical_map(poly, pts)
    for k, p in enumerate(pts):
        assert poly.vertices[mapping[k]] == p
    assert mapping != list(range(4))


def test_file_to_canonical_rejects_interior_points():
    poly, pts = parse_polytope_text("2 5\n1 0\n0 1\n-1 0\n0 -1\n0 0\n")
    with pytest.raises(PolytopeParseError):
        file_to_canonical_map(poly, pts)


def test_file_to_canonical_rejects_duplicates():
    poly, pts = parse_polytope_text("2 4\n1 0\n0 1\n-1 -1\n1 0\n")
    with pytest.raises(PolytopeParseError):
        file_to_canonical_map(poly, pts)


def test_partition_spec_parsing():
    assert parse_partition_spec("0,2;1,3", 4) == [[0, 2], [1, 3]]
    assert parse_partition_spec(" 0 , 2 ; 1 , 3 ", 4) == [[0, 2], [1, 3]]
    assert parse_partition_spec("3", 4) == [[3]]


@pytest.mark.parametrize(
    "spec",
    ["", ";", "0,1;;2", "0,1;1,2", "0,0;1", "0,1;4", "0,-1", "a,b", "0 1"],
)
def test_partition_spec_rejects_malformed(spec):
    with pytest.raises(PolytopeParseError):
        parse_partition_spec(spec, 4)


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"


def _no_floats(node):
    if isinstance(node, float):
        return False
    if isinstance(node, dict):
        return all(_no_floats(v) for v in node.values())
    if isinstance(node, list):
        return all(_no_floats(v) for v in node)
    return True


def test_partition_report_shape():
    text = polytope_file_text("d2_cross.poly")
    poly, pts = parse_polytope_text(text)
    mapping = file_to_canonical_map(poly, pts)
    file_parts = [[0, 1], [2, 3]]
    outcome = validate_partition(poly, [[mapping[i] for i in p] for p in file_parts])
    duality = run_full_duality(outcome)
    rep = partition_report(
        "nef-dual", "cross.poly", poly, pts, file_parts, mapping, outcome, duality
    )
    assert rep["schema"] == SCHEMA
    assert rep["command"] == "nef-dual"
    assert rep["valid"] is True
    assert rep["rejection"] is None
    assert rep["input"]["parts"] == file_parts
    assert rep["canonical"]["file_to_canonical"] == mapping
    assert set(rep["checks"]) == {
        "polar_is_nabla_sum",
        "nabla_polar_is_delta_sum",
        "nabla_reflexive",
        "pairing_relations",
        "delta_parts_from_dual",
        "involution",
    }
    assert all(c["passed"] for c in rep["checks"].values())
    assert len(rep["dual_parts"]) == 2
    assert _no_floats(rep)


def test_partition_report_exact_rational_coordinates():
    from nefdual.nefpart import Rejection

    poly, pts = parse_polytope_text("2 3\n1/2 0\n0 1\n-1 -1\n")
    rep = partition_report("nef-validate", None, poly, pts, [[0, 1, 2]],
                           file_to_canonical_map(poly, pts),
                           outcome=Rejection(reason="NotReflexive"))
    assert ["1/2", 0] in rep["input"]["points"]
    assert rep["valid"] is False
    assert rep["rejection"]["reason"] == "NotReflexive"
    assert _no_floats(rep)
