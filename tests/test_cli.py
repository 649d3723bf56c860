"""End-to-end command-line behavior: golden outputs and the exit-code contract.

Golden text files are compared byte for byte. JSON output is compared as
parsed data, key order included, after dropping the wall-clock ``timings``
field and reducing ``input.file`` to a basename (:func:`normalize_report`);
``tests/golden/regen.py`` regenerates the stored files from the case tables
here, normalized the same way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nefdual
from nefdual.cli import main
from nefdual.polytope import Polytope

DATA = Path(nefdual.__file__).parent / "data"
FIX = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# name -> (expected exit code, argv)
TEXT_CASES = {
    "polar_square.txt": (0, ["polar", DATA / "d2_square.poly"]),
    "polar_triangle.txt": (0, ["polar", DATA / "d2_triangle.poly"]),
    "check_cross.txt": (0, ["check-reflexive", DATA / "d2_cross.poly"]),
    "check_square_big.txt": (1, ["check-reflexive", DATA / "d2_square_big.poly"]),
    "check_halfpoint.txt": (1, ["check-reflexive", FIX / "halfpoint_triangle.poly"]),
    "minkowski_square.txt": (0, ["minkowski", FIX / "seg_x.poly", FIX / "seg_y.poly"]),
    "minkowski_cube.txt": (0, ["minkowski", FIX / "seg_z3.poly", FIX / "box_xy3.poly"]),
    "validate_axis.txt": (0, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0,2;1,3"]),
    "validate_corner.txt": (1, ["nef-validate", DATA / "d2_square.poly", "--parts", "0;1,2,3"]),
    "dual_axis.txt": (0, ["nef-dual", DATA / "d2_cross.poly", "--parts", "0,2;1,3"]),
    "dual_diag.txt": (0, ["nef-dual", DATA / "d2_cross.poly", "--parts", "0,1;2,3"]),
    "dual_octa.txt": (0, ["nef-dual", DATA / "d3_octahedron.poly", "--parts", "0;1,2,3,4,5"]),
    "enum_cross_r2.txt": (0, ["nef-enumerate", DATA / "d2_cross.poly", "-r", "2"]),
    "enum_triangle_r1.txt": (0, ["nef-enumerate", DATA / "d2_triangle.poly", "-r", "1"]),
}

JSON_CASES = {
    "dual_diag.json": (0, ["nef-dual", DATA / "d2_cross.poly", "--parts", "0,1;2,3", "--json"]),
    "validate_corner.json": (
        1,
        ["nef-validate", DATA / "d2_square.poly", "--parts", "0;1,2,3", "--json"],
    ),
    "enum_cross_r2.json": (0, ["nef-enumerate", DATA / "d2_cross.poly", "-r", "2", "--json"]),
}


def test_golden_directory_matches_the_case_tables():
    stored = {p.name for p in GOLDEN.iterdir() if p.suffix in (".txt", ".json")}
    assert stored == set(TEXT_CASES) | set(JSON_CASES)


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_is_byte_exact(capsys, name):
    want_code, argv = TEXT_CASES[name]
    code, out, err = run_cli(capsys, argv)
    assert code == want_code
    assert err == ""
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def normalize_report(rep):
    assert "timings" in rep
    assert isinstance(rep["timings"]["seconds"], float)
    assert rep["timings"]["seconds"] >= 0
    rep = dict(rep)
    del rep["timings"]
    rep["input"] = dict(rep["input"], file=Path(rep["input"]["file"]).name)
    return rep


def pairs(rep):
    """``rep`` as nested lists of (key, value) pairs, so that key order counts."""
    return json.loads(json.dumps(rep), object_pairs_hook=list)


def golden_pairs(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"), object_pairs_hook=list)


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_output_matches_modulo_timings(capsys, name):
    want_code, argv = JSON_CASES[name]
    code, out, err = run_cli(capsys, argv)
    assert code == want_code
    assert err == ""
    assert pairs(normalize_report(json.loads(out))) == golden_pairs(name)


def test_nef_validate_builds_no_polar(capsys, monkeypatch):
    """Every nef-validate golden request, text and JSON, gives its golden
    output with no polar built."""

    def no_polar(self):
        raise AssertionError("nef-validate built a polar")

    monkeypatch.setattr(Polytope, "polar_dual", no_polar)
    cases = {**TEXT_CASES, **JSON_CASES}
    names = sorted(n for n, (_, argv) in cases.items() if argv[0] == "nef-validate")
    assert names == ["validate_axis.txt", "validate_corner.json", "validate_corner.txt"]
    for name in names:
        want_code, argv = cases[name]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (want_code, "")
        if name.endswith(".json"):
            assert pairs(normalize_report(json.loads(out))) == golden_pairs(name)
        else:
            assert out == (GOLDEN / name).read_text(encoding="utf-8")


# every row: (expected code, argv, expected stderr prefix or None)
CONTRACT = [
    (0, ["polar", DATA / "d1_segment.poly"], None),
    (1, ["polar", FIX / "shifted_square.poly"], "error: ZeroNotInterior"),
    (2, ["polar", FIX / "malformed.poly"], "error:"),
    (2, ["polar", FIX / "no_such_file.poly"], "error:"),
    (0, ["check-reflexive", DATA / "d3_cube.poly"], None),
    (1, ["check-reflexive", DATA / "d2_stretched_triangle.poly"], None),
    (2, ["check-reflexive", FIX / "malformed.poly"], "error:"),
    (0, ["nef-validate", DATA / "d3_octahedron.poly", "--parts", "0;1,2,3,4,5"], None),
    (1, ["nef-validate", DATA / "d2_square.poly", "--parts", "0,1;2,3"], None),
    (1, ["nef-validate", FIX / "halfpoint_triangle.poly", "--parts", "0;1,2"], None),
    (2, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0,1;1,2"], "error:"),
    (2, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0;9"], "error:"),
    (2, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0,1;;2,3"], "error:"),
    (0, ["nef-dual", DATA / "d2_hexagon.poly", "--parts", "0,1,2;3,4,5"], None),
    (1, ["nef-dual", DATA / "d2_square.poly", "--parts", "0;1,2,3"], None),
    (2, ["nef-dual", DATA / "d2_cross.poly", "--parts", ""], "error:"),
    (0, ["nef-enumerate", DATA / "d2_square.poly", "-r", "2"], None),
    (1, ["nef-enumerate", DATA / "d2_square_big.poly", "-r", "2"], None),
    (2, ["minkowski", FIX / "seg_x.poly", FIX / "seg_z3.poly"], "error:"),
    (2, ["polar", FIX], "error:"),
    (2, ["check-reflexive", FIX / "latin1.poly"], "error:"),
    (2, ["polar", DATA / "d2_square.poly", "--output", FIX / "no_such_dir" / "out.poly"], "error:"),
    (2, ["nef-enumerate", DATA / "d2_cross.poly", "-r", "0"], "error:"),
    (2, ["nef-enumerate", DATA / "d2_cross.poly", "-r", "-1"], "error:"),
    (2, ["check-reflexive", FIX / "exponent.poly"], "error: bad coordinate '1e2'"),
    (2, ["check-reflexive", FIX / "decimal.poly"], "error: bad coordinate '0.5'"),
    (2, ["check-reflexive", FIX / "underscore.poly"], "error: bad coordinate '1_0'"),
    (2, ["nef-validate", DATA / "d2_cross.poly", "--parts", "0,\u00b2;1,3"], "error: bad index"),
    (2, ["check-reflexive", FIX / "header_arabic_digit.poly"], "error: header must be 'd n'"),
    (2, ["check-reflexive", FIX / "header_underscore.poly"], "error: header must be 'd n'"),
    (2, ["check-reflexive", FIX / "header_plus.poly"], "error: header must be 'd n'"),
]


@pytest.mark.parametrize("want_code,argv,err_prefix", CONTRACT)
def test_exit_code_contract(capsys, want_code, argv, err_prefix):
    code, out, err = run_cli(capsys, argv)
    assert code == want_code
    if err_prefix is None:
        assert err == ""
    else:
        assert err.startswith(err_prefix)


def test_not_reflexive_messages_name_the_failure(capsys):
    for argv in (
        ["nef-validate", FIX / "halfpoint_triangle.poly", "--parts", "0;1,2"],
        ["nef-dual", DATA / "d2_square_big.poly", "--parts", "0,1;2,3"],
        ["nef-enumerate", DATA / "d2_square_big.poly", "-r", "2"],
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert out.startswith("invalid: NotReflexive:")


def test_argparse_failures_exit_2(capsys):
    assert main(["nef-enumerate", str(DATA / "d2_cross.poly"), "-r", "two"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_square_with_no_valid_bipartition_prints_nothing(capsys):
    code, out, err = run_cli(capsys, ["nef-enumerate", DATA / "d2_square.poly", "-r", "2"])
    assert code == 0
    assert out == ""
    assert err == ""


def test_output_flag_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "dual.poly"
    code, out, err = run_cli(
        capsys, ["polar", DATA / "d2_square.poly", "--output", target]
    )
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content == (GOLDEN / "polar_square.txt").read_text(encoding="utf-8")


# The rejection object of a base that is not reflexive, on every command
# that validates or enumerates.
NOT_REFLEXIVE = {
    "reason": "NotReflexive",
    "part": None,
    "cone": None,
    "vertex": None,
    "detail": "nef-partitions are defined on reflexive polytopes",
}


def test_json_rejection_for_not_reflexive_input(capsys):
    code, out, _ = run_cli(
        capsys,
        ["nef-validate", FIX / "halfpoint_triangle.poly", "--parts", "0;1,2", "--json"],
    )
    assert code == 1
    rep = normalize_report(json.loads(out))
    assert rep["valid"] is False
    assert rep["rejection"] == NOT_REFLEXIVE
    assert rep["checks"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["nef-dual", DATA / "d2_square_big.poly", "--parts", "0,1;2,3", "--json"],
        ["nef-enumerate", DATA / "d2_square_big.poly", "-r", "2", "--json"],
    ],
)
def test_json_rejection_for_not_reflexive_input_on_dual_and_enumerate(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err == ""
    rep = normalize_report(json.loads(out))
    assert rep["command"] == argv[0]
    assert rep["valid"] is False
    assert rep["rejection"] == NOT_REFLEXIVE


def test_thread_env_variable_does_not_change_output(capsys, monkeypatch):
    _, base, _ = run_cli(capsys, ["nef-enumerate", DATA / "d3_octahedron.poly", "-r", "2"])
    monkeypatch.setenv("NEFDUAL_THREADS", "4")
    _, threaded, _ = run_cli(capsys, ["nef-enumerate", DATA / "d3_octahedron.poly", "-r", "2"])
    assert threaded == base
    assert base.count("\n") == 31
    monkeypatch.setenv("NEFDUAL_THREADS", "not a number")
    _, fallback, _ = run_cli(capsys, ["nef-enumerate", DATA / "d3_octahedron.poly", "-r", "2"])
    assert fallback == base


def test_module_is_runnable_as_a_script():
    # the child imports the same nefdual as this process, installed or not
    package_root = str(Path(nefdual.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nefdual", "polar", str(DATA / "d2_square.poly")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "polar_square.txt").read_text(encoding="utf-8")
