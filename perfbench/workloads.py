"""The four benchmark workloads: seeded inputs, operation lists and the gate.

Every workload is a single closed-loop client: each operation starts only
after the previous one has returned. A workload has a ``setup`` step, which
builds the inputs the program receives (and is timed as set-up), and a
``run`` step, which issues the workload's fixed list of operations once. That
list is one *pass*; the benchmark repeats passes for the measuring time.

The seed fixes two things and nothing else:

* whether every input polytope gets the small unimodular shear
  ``x_0 += x_1`` (seed 0 leaves the inputs as they are). Partition counts,
  check verdicts and the file-order partitions are invariant under it, so
  the gate's expected answers hold for every seed;
* the order of the operations in each pass.

Each operation's result goes through the correctness gate right after it
returns, outside the timed call. A call that raises, or a result the gate
rejects, counts as a failed operation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from time import perf_counter

import nefdual as nd
from nefdual import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_cli.json")
# The cli workload's files, relative to the checkout root (the working
# directory of a run); one directory per process, so runs cannot collide.
WORK_ROOT = os.path.join("perfbench", "_work")
WORK_DIR = os.path.join(WORK_ROOT, str(os.getpid()))

CHECK_NAMES = frozenset(
    {
        "polar_is_nabla_sum",
        "nabla_polar_is_delta_sum",
        "nabla_reflexive",
        "pairing_relations",
        "delta_parts_from_dual",
        "involution",
    }
)


# ---------------------------------------------------------------- inputs


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


def _simplex(d):
    """conv(e_1, ..., e_d, -(e_1 + ... + e_d)): the face fan of P^d."""
    return [_unit(d, i) for i in range(d)] + [(-1,) * d]


def _octahedron_x_segment():
    octa = [_unit(3, i, s) for i in range(3) for s in (1, -1)]
    return [p + (t,) for p in octa for t in (1, -1)]


def _triangle_x_triangle():
    tri = [(1, 0), (0, 1), (-1, -1)]
    return [p + q for p in tri for q in tri]


def order_rng(seed: int) -> random.Random:
    """The generator that shuffles the operations of every pass."""
    return random.Random(f"nefdual-bench:order:{seed}")


def shear_for(seed, dim):
    """``(i, j)`` for the shear ``x_i += x_j``: (0, 1) for a non-zero seed, else None.

    Every non-zero seed gets the same shear. Different shears of one polytope
    cost the program up to a third more or less work (the coordinate order
    steers its eliminations), which would swamp the run-to-run spread; the
    seed still sets the order of the operations.
    """
    return (0, 1) if seed != 0 and dim >= 2 else None


def shear_point(coords, shear):
    c = list(coords)
    if shear is not None:
        i, j = shear
        c[i] += c[j]
    return tuple(c)


def shear_dual(coords, shear):
    """The matching map on the dual lattice, so that pairings are preserved."""
    c = list(coords)
    if shear is not None:
        i, j = shear
        c[j] -= c[i]
    return tuple(c)


def sheared(seed, points):
    shear = shear_for(seed, len(points[0]))
    return [shear_point(p, shear) for p in points]


def file_parts_key(np_, canon_to_file):
    """Partition as sorted file-order index tuples; invariant under the shear."""
    return tuple(sorted(tuple(sorted(canon_to_file[i] for i in part)) for part in np_.parts))


def spec_of(parts):
    return ";".join(",".join(str(i) for i in part) for part in parts)


class Input:
    """A generated input: its file-order points and the hull built from them."""

    def __init__(self, name, points):
        self.name = name
        self.delta = nd.hull([nd.Point(p) for p in points])
        index = {tuple(p): k for k, p in enumerate(points)}
        self.canon_to_file = [index[tuple(v.coords)] for v in self.delta.vertices]
        self.file_to_canon = {f: c for c, f in enumerate(self.canon_to_file)}


# ------------------------------------------------------------ recording


class GateFailure(Exception):
    pass


FAILED = object()


class Recorder:
    """Times each operation of one pass and collects gate failures.

    After each call, outside the timed interval, the machine-speed reference
    is sampled (speed.py). Times are recorded as (key, kind, raw seconds).
    """

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.times = []  # in issue order
        self.failed = {}  # key -> message

    @property
    def attempted(self):
        return len(self.times)

    def call(self, key, kind, fn, *args):
        if self.tracer is not None:
            self.tracer.op = len(self.times)
        result = FAILED
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program failed; record it and go on
            self.failed[key] = f"{type(exc).__name__}: {exc}"
        raw = perf_counter() - start
        self.times.append((key, kind, raw))
        self.speed.sample(raw)
        return result

    def expect(self, key, ok, message):
        if not ok and key not in self.failed:
            self.failed[key] = message


def check_duality(rec, key, result):
    if result is FAILED:
        return
    names = set(result.checks)
    failed = sorted(n for n, c in result.checks.items() if not c.passed)
    rec.expect(key, names == CHECK_NAMES, f"checks run: {sorted(names)}")
    rec.expect(key, not failed and result.all_passed, f"checks failed: {failed}")


def check_count(rec, key, found, expected):
    if found is FAILED:
        return
    rec.expect(key, len(found) == expected, f"found {len(found)}, expected {expected}")


# ------------------------------------------------------------- workloads


class Sweep:
    """Enumerate, then run_full_duality on partitions found, over 2D and 3D inputs.

    The acceptance sweep's polytopes and r in {2, 3}, cut to fit one pass
    in a few seconds: octahedron r=3 (4.7 s of enumeration, 90 partitions)
    is left out, and duality runs on every 2D partition (24) and on every
    fifth octahedron r=2 partition in file order (7).
    """

    name = "sweep"
    kind = "duality"
    # (polytope, r, expected count, duality stride over the file-ordered results)
    PLAN = [
        ("cross2d", 2, 7, 1),
        ("cross2d", 3, 6, 1),
        ("square2d", 2, 0, 1),
        ("square2d", 3, 0, 1),
        ("hexagon", 2, 9, 1),
        ("hexagon", 3, 2, 1),
        ("octahedron", 2, 31, 5),
        ("cube", 2, 0, 1),
        ("cube", 3, 0, 1),
    ]
    SHORT_PLAN = [("cross2d", 2, 7, 2), ("square2d", 2, 0, 1)]

    def __init__(self, seed, short=False):
        self.plan = self.SHORT_PLAN if short else self.PLAN
        self.names = sorted({p[0] for p in self.plan})
        self.seed = seed

    def setup(self):
        entries = {e.name: e for e in nd.load_corpus()}
        return {
            n: Input(n, sheared(self.seed, [tuple(p.coords) for p in entries[n].file_points]))
            for n in self.names
        }

    def run(self, inputs, rec, rng):
        plan = list(self.plan)
        rng.shuffle(plan)
        for name, r, expected, stride in plan:
            poly = inputs[name]
            key = f"enumerate {name} r={r}"
            found = rec.call(key, "enumerate", nd.enumerate_nef_partitions, poly.delta, r)
            check_count(rec, key, found, expected)
            if found is FAILED:
                continue
            chosen = sorted(found, key=lambda np_: file_parts_key(np_, poly.canon_to_file))
            chosen = chosen[::stride]
            rng.shuffle(chosen)
            for np_ in chosen:
                key = f"duality {name} {spec_of(file_parts_key(np_, poly.canon_to_file))}"
                check_duality(rec, key, rec.call(key, "duality", nd.run_full_duality, np_))


class Enum4D:
    """Enumeration only, on 4D inputs at both ends of the acceptance ratio.

    The 4D cross-polytope (127 accepted candidates, 37 s) and the 4-cube
    (32767 rejected candidates, 30 s) do not fit one pass; these inputs keep
    the two ends in seconds: the 4-simplex (all 15 candidates accepted), the
    octahedron times a segment (all 2047 rejected) and the product of two
    triangles (all 255 rejected, a tenth of the time).
    """

    name = "enum4d"
    kind = "enumerate"
    INPUTS = {
        "simplex4": _simplex(4),
        "octahedron_x_segment": _octahedron_x_segment(),
        "triangle_x_triangle": _triangle_x_triangle(),
    }
    PLAN = [
        ("simplex4", 2, 15),
        ("octahedron_x_segment", 2, 0),
        ("triangle_x_triangle", 2, 0),
    ]
    SHORT_PLAN = [("triangle_x_triangle", 2, 0)]

    def __init__(self, seed, short=False):
        self.plan = self.SHORT_PLAN if short else self.PLAN
        self.seed = seed

    def setup(self):
        names = [p[0] for p in self.plan]
        return {n: Input(n, sheared(self.seed, self.INPUTS[n])) for n in names}

    def run(self, inputs, rec, rng):
        plan = list(self.plan)
        rng.shuffle(plan)
        for name, r, expected in plan:
            key = f"enumerate {name} r={r}"
            found = rec.call(key, "enumerate", nd.enumerate_nef_partitions, inputs[name].delta, r)
            check_count(rec, key, found, expected)


class Simplex5:
    """The paper's P^5 case: the 5-simplex with r=2, validated and dualised.

    Enumerating all 31 partitions takes 13 s and dualising them 56 s. A pass
    takes the degree (3,3) partition, two cubics in P^5: validate_partition
    on it, then run_full_duality. One partition keeps a pass short enough for
    about ten repeats in a run; the other degree types cost about the same.
    """

    name = "simplex5"
    kind = "duality"
    PARTS = [((0, 1, 2), (3, 4, 5))]
    SHORT_PARTS = PARTS

    def __init__(self, seed, short=False):
        self.parts = self.SHORT_PARTS if short else self.PARTS
        self.seed = seed

    def setup(self):
        return Input("simplex5", sheared(self.seed, _simplex(5)))

    def run(self, poly, rec, rng):
        parts = list(self.parts)
        rng.shuffle(parts)
        for file_parts in parts:
            spec = spec_of(file_parts)
            canon = [[poly.file_to_canon[i] for i in part] for part in file_parts]
            key = f"validate simplex5 {spec}"
            np_ = rec.call(key, "validate", nd.validate_partition, poly.delta, canon)
            if np_ is FAILED:
                continue
            if not isinstance(np_, nd.NefPartition):
                rec.expect(key, False, f"rejected: {np_}")
                continue
            key = f"duality simplex5 {spec}"
            check_duality(rec, key, rec.call(key, "duality", nd.run_full_duality, np_))


# ------------------------------------------------------------------ cli


def _poly_text(points):
    lines = [f"{len(points[0])} {len(points)}"]
    lines += [" ".join(str(Fraction(c)) for c in p) for p in points]
    return "\n".join(lines) + "\n"


def cli_request(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def normalized_output(argv, stdout, stderr):
    """Output as compared with the golden file.

    JSON reports lose ``timings``, and the file name they echo loses its
    directory, which differs from run to run.
    """
    if "--json" in argv and stdout.startswith("{"):
        rep = json.loads(stdout)
        rep.pop("timings", None)
        rep["input"]["file"] = os.path.basename(rep["input"]["file"])
        stdout = json.dumps(rep, sort_keys=True)
    return stdout + "\n--stderr--\n" + stderr


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Request:
    def __init__(self, key, argv, entry_name, command, spec=None):
        self.key = key
        self.argv = argv
        self.entry = entry_name
        self.command = command
        self.spec = spec


class Cli:
    """``cli.main`` requests over polytope files written from the bundled corpus.

    Every bundled partition gets nef-dual (text and --json) and nef-validate;
    every file gets polar and check-reflexive; every 2D file gets
    nef-enumerate -r 2. The two non-reflexive files must exit 1 where the
    verdict is negative.
    """

    name = "cli"
    kind = "request"
    SHORT_ENTRIES = ("cross2d", "square_big")

    def __init__(self, seed, short=False):
        self.seed = seed
        self.short = short

    def setup(self):
        entries = [e for e in nd.load_corpus() if not self.short or e.name in self.SHORT_ENTRIES]
        os.makedirs(WORK_DIR, exist_ok=True)
        requests = []
        files = {}
        for e in entries:
            points = sheared(self.seed, [tuple(p.coords) for p in e.file_points])
            path = os.path.join(WORK_DIR, f"{e.name}.poly")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_poly_text(points))
            files[e.name] = points
            for spec in e.partition_specs:
                for cmd, extra in (("nef-dual", []), ("nef-dual", ["--json"]), ("nef-validate", [])):
                    argv = [cmd, path, "--parts", spec] + extra
                    key = " ".join([cmd, e.name, "--parts", spec] + extra)
                    requests.append(Request(key, argv, e.name, cmd, spec))
            for cmd in ("polar", "check-reflexive"):
                requests.append(Request(f"{cmd} {e.name}", [cmd, path], e.name, cmd))
            if e.polytope.ambient_dim == 2:
                argv = ["nef-enumerate", path, "-r", "2"]
                requests.append(Request(f"nef-enumerate {e.name} -r 2", argv, e.name, "nef-enumerate"))
        return {"requests": requests, "files": files}

    def run(self, inputs, rec, rng):
        golden = load_golden()
        requests = list(inputs["requests"])
        rng.shuffle(requests)
        for req in requests:
            out = rec.call(req.key, "request", cli_request, req.argv)
            if out is FAILED:
                continue
            expected = golden.get(req.key)
            if expected is None:
                rec.expect(req.key, False, "no golden output for this request")
                continue
            try:
                check_request(
                    req, out, expected, inputs["files"][req.entry], self.seed
                )
            except GateFailure as exc:
                rec.expect(req.key, False, str(exc))


@functools.cache
def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def _need(ok, message):
    if not ok:
        raise GateFailure(message)


def _frac_tuple(tokens):
    return tuple(Fraction(t) for t in tokens)


def _fmt(coords):
    return " ".join(str(c) for c in coords)


def _fmt_paren(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _parse_paren_list(text):
    """'(1, 0) (0, -1)' -> [(1, 0), (0, -1)] as Fractions."""
    body = text.strip()
    if not body:
        return []
    return [_frac_tuple(chunk.split(",")) for chunk in body.strip("()").split(") (")]


def sheared_polar_text(golden_text, shear):
    lines = golden_text.splitlines()
    verts = sorted(shear_dual(_frac_tuple(l.split()), shear) for l in lines[1:])
    return "\n".join([lines[0]] + [_fmt(v) for v in verts]) + "\n"


def _dual_text_vertices(text, shear):
    """nabla vertices and dual parts of a nef-dual text report, sheared."""
    nabla, parts, in_nabla = [], [], False
    for line in text.splitlines():
        if line == "nabla vertices:":
            in_nabla = True
        elif in_nabla and line.startswith("  "):
            nabla.append(shear_dual(_frac_tuple(line.split()), shear))
        else:
            in_nabla = False
            if line.startswith("dual part "):
                coords = line.partition(": ")[2]
                parts.append(sorted(shear_dual(v, shear) for v in _parse_paren_list(coords)))
    return sorted(nabla), parts


def sheared_dual_text(golden_text, shear):
    """The nef-dual text report of the sheared input, derived from seed 0's.

    nabla and the dual parts live in the dual lattice, so their vertices move
    by the dual shear and are re-sorted into canonical (lexicographic) order.
    """
    nabla, parts = _dual_text_vertices(golden_text, shear)
    lines = golden_text.splitlines()
    first_part = next(k for k, l in enumerate(lines) if l.startswith("dual part "))
    head = lines[: lines.index("nabla vertices:") + 1]
    out = head + ["  " + _fmt(v) for v in nabla]
    out += [f"dual part {k}: " + " ".join(_fmt_paren(v) for v in p) for k, p in enumerate(parts)]
    out += lines[first_part + len(parts):]
    return "\n".join(out) + "\n"


def _json_points(points):
    return {tuple(Fraction(c) for c in p) for p in points}


def _check_dual_json(stdout, golden_text, shear, points):
    rep = json.loads(stdout)
    _need(rep.get("valid") is True, "report is not valid")
    checks = rep.get("checks") or {}
    _need(set(checks) == CHECK_NAMES, f"checks reported: {sorted(checks)}")
    _need(all(c["passed"] for c in checks.values()), "a check failed")
    _need(
        [tuple(Fraction(c) for c in p) for p in rep["input"]["points"]]
        == [tuple(Fraction(c) for c in p) for p in points],
        "input points not echoed",
    )
    nabla, parts = _dual_text_vertices(golden_text, shear)
    _need(_json_points(rep["nabla"]["vertices"]) == set(nabla), "nabla vertices differ")
    got = [_json_points(p["vertices"]) for p in rep["dual_parts"]]
    _need(got == [set(p) for p in parts], "dual parts differ")


def check_request(req, out, golden, points, seed):
    """Gate one CLI request against the seed-0 golden output.

    At seed 0 the normalized output must match the golden digest exactly. At
    other seeds the exit code must match, and the output must equal the
    golden output mapped through the shear where the output depends on
    coordinates, or equal it outright where it does not.
    """
    code, stdout, stderr = out
    shear = shear_for(seed, len(points[0]))
    _need(code == golden["exit"], f"exit {code}, expected {golden['exit']}")
    if seed == 0:
        got = digest(normalized_output(req.argv, stdout, stderr))
        _need(got == golden["sha256"], "output differs from the golden output")
        return
    text = golden.get("stdout")
    if req.command in ("nef-validate", "nef-enumerate"):
        _need(stdout == text, "output differs from the golden output")
    elif req.command == "check-reflexive":
        if code == 0:
            _need(stdout == text, "verdict differs")
        else:
            _need(stdout.startswith("not reflexive"), "negative verdict missing")
    elif req.command == "polar":
        if code == 0:
            _need(stdout == sheared_polar_text(text, shear), "polar differs")
    elif req.command == "nef-dual":
        if "--json" in req.argv:
            dual_text = load_golden()[f"nef-dual {req.entry} --parts {req.spec}"]["stdout"]
            _check_dual_json(stdout, dual_text, shear, points)
        else:
            _need(stdout == sheared_dual_text(text, shear), "dual report differs")
    else:
        raise GateFailure(f"unknown command {req.command}")


WORKLOADS = {w.name: w for w in (Sweep, Enum4D, Simplex5, Cli)}
