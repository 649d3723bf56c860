"""Fuzzing the command line: polytope-file text and argv for all six subcommands.

Whatever the input, ``main`` must return 0, 1 or 2, never let an exception
out (so no traceback reaches stderr), and give the same stdout, the same
stderr and the same ``--output`` file on a second identical call; only the
JSON ``timings`` value may differ. Inputs are kept small (dimension at most
3, at most 8 points, coordinates of absolute value at most 3), so that the
search adds seconds to the suite.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from nefdual.cli import main
from nefdual.polytope import Point, hull

COMMANDS = ("polar", "check-reflexive", "nef-validate", "nef-dual", "nef-enumerate", "minkowski")
NOISE = "0123456789/-+.e_ #\nx\t²١"
TIMINGS = re.compile(r'"seconds": [-+.0-9eE]+')


@st.composite
def coordinates(draw):
    if draw(st.booleans()):
        return str(draw(st.integers(-3, 3)))
    q = draw(st.integers(1, 3))
    return str(Fraction(draw(st.integers(-3 * q, 3 * q)), q))


@st.composite
def well_formed(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.lists(coordinates(), min_size=d, max_size=d), min_size=1, max_size=8))
    lines = [f"{d} {len(pts)}"] + [" ".join(p) for p in pts]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines) + "\n"


def garble(draw, text, noise):
    """``text`` after one to three edits: a piece of ``noise`` inserted, a
    character deleted, or a character replaced by a piece of ``noise``."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = draw(st.sampled_from(noise))
        if how == "insert":
            text = text[:i] + c + text[i:]
        elif how == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


@st.composite
def vertex_files(draw):
    """The vertices (found by ``hull``) of a polytope around the origin, in a
    shuffled file order, so that reflexive inputs and valid partitions come
    up often."""
    d = draw(st.integers(1, 3))
    units = [tuple(s * (j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    extra = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=6))
    verts = hull(Point(p) for p in units + extra).vertices
    verts = draw(st.permutations(verts))
    lines = [f"{d} {len(verts)}"] + [" ".join(str(c) for c in v.coords) for v in verts]
    return "\n".join(lines) + "\n"


@st.composite
def file_texts(draw):
    kind = draw(st.integers(0, 9))
    if kind < 5:
        return draw(vertex_files())
    if kind < 7:
        return draw(well_formed())
    if kind < 9:
        return garble(draw, draw(well_formed()), NOISE)
    return draw(st.one_of(st.text(alphabet=NOISE, max_size=30), st.binary(max_size=30)))


@st.composite
def partition_specs(draw, n):
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    parts = [[i for i, lab in enumerate(labels) if lab == k] for k in range(3)]
    spec = ";".join(",".join(map(str, part)) for part in parts if part)
    if draw(st.booleans()):
        spec = garble(draw, spec, ["9", ",", ";", " ", "-", "+1", "x", "²", "١", "1e2"])
    return spec


@st.composite
def invocations(draw):
    """(command, files, options): the files are texts written before the call."""
    command = draw(st.sampled_from(COMMANDS))
    if command in ("nef-validate", "nef-dual", "nef-enumerate") and draw(st.booleans()):
        files = [draw(vertex_files())]
    else:
        files = [draw(file_texts()) for _ in range(2 if command == "minkowski" else 1)]
    options = []
    if command in ("nef-validate", "nef-dual"):
        n = files[0].count("\n") - 1 if isinstance(files[0], str) else 4
        options += ["--parts", draw(partition_specs(max(n, 1)))]
    if command == "nef-enumerate":
        options += ["-r", str(draw(st.integers(-1, 3))) if draw(st.integers(0, 9)) != 7 else "two"]
    if command in ("nef-validate", "nef-dual", "nef-enumerate") and draw(st.booleans()):
        options.append("--json")
    output = draw(st.sampled_from([None] * 6 + ["out.txt"] * 3 + ["missing/out.txt"]))
    if output is not None:
        options += ["--output", output]
    if draw(st.integers(0, 19)) == 7:
        options.append(draw(st.sampled_from(["--bogus", "--json", "extra", "-r"])))
    return command, files, options


def call(argv, out_path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    texts = (stdout.getvalue(), stderr.getvalue(), written)
    return (code, *(TIMINGS.sub('"seconds": T', x) for x in texts))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_cli_exits_cleanly_and_deterministically(inv):
    command, files, options = inv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for k, content in enumerate(files):
            path = tmp / f"in{k}.poly"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            paths.append(str(path))
        options = [str(tmp / o) if o.endswith("out.txt") else o for o in options]
        argv = [command, *paths, *options]
        out_path = tmp / "out.txt"
        first = call(argv, out_path)
        if out_path.exists():
            out_path.unlink()
        second = call(argv, out_path)
    code, stdout, stderr, _ = first
    event(f"exit {code}")
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    assert second == first
