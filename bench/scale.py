"""Scale benchmark: enumeration and duality on inputs larger than perfbench's.

Run from anywhere; the package is imported from ``src/`` of the checkout this
file lives in::

    python3 bench/scale.py                  # every input; appends an entry to BENCH_scale.json
    python3 bench/scale.py --short          # the small inputs, one cheap run each; writes nothing
    python3 bench/scale.py --label NAME --out FILE

For each input (a reflexive polytope and a number of parts r) it records:

* ``enumerate_s``: the best of ``REPEAT`` runs of ``enumerate_nef_partitions``,
  each on a freshly built polytope, so no fan or memo is shared between runs;
  raw wall-clock seconds with no machine-speed correction, and every run in
  ``enumerate_runs_s``;
* ``accepted``: how many nef-partitions were found, gated against ``EXPECTED``;
* ``duality_s``: the best of ``REPEAT`` runs of ``run_full_duality`` over
  the first ``DUALITY`` partitions found, each run on the partitions one
  enumeration run found, so no nabla or dual is shared between runs; every
  partition must pass every check, and every run is in ``duality_runs_s``;
* ``gc_collections``: the cyclic collector's collections during the row's
  enumeration and duality runs, one count per generation (0, 1, 2), the
  deltas of ``gc.get_stats()``; on code that leaves no reference cycles
  they come only from the allocations the runs make;
* ``enumerate_speed_factors`` and ``duality_speed_factors``:
  ``perfbench/speed.py``'s reference factor of each run, sampled right
  after it, one beside each time in ``enumerate_runs_s`` and
  ``duality_runs_s``; a raw time times its own factor is a time at that
  file's fixed machine speed, so runs that the host slowed differently,
  in one row or in entries not run back to back, can be compared;
* ``speed_factor``: the factor of all the row's samples together.

The full mode also records a cold-start row, each figure the median of
``COLD`` fresh interpreters started with ``PYTHONDONTWRITEBYTECODE=1``:
``import_s``, the time ``import nefdual`` takes in the interpreter, and
``cli_s``, the whole run of ``python -m nefdual`` on ``COLD_ARGS``, with
``python_s``, the run of a bare interpreter, for comparison. The package's
own source is compiled on import unless ``src/nefdual/__pycache__``
exists; ``pycache`` records whether it did.

``--short`` runs the ``SHORT`` inputs with one enumeration and one duality
run of ``SHORT_DUALITY`` partitions each, a check rather than a
measurement.

A count that differs from ``EXPECTED`` or a failed duality check prints the
difference and exits with status 1, and no entry is written. Otherwise the full
mode appends one entry (label, date, host, Python, settings, the rows and the
cold-start row) to the JSON list in ``--out``, so the file is the trajectory
of the benchmark across commits. Standard library only, with the
machine-speed reference imported from ``perfbench/speed.py``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import speed  # noqa: E402

from nefdual.duality import run_full_duality  # noqa: E402
from nefdual.nefpart import enumerate_nef_partitions  # noqa: E402
from nefdual.polytope import Point, hull  # noqa: E402


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


def _cross(d):
    return [_unit(d, i, s) for i in range(d) for s in (1, -1)]


def _free_sum(*factors):
    """Vertices of the free sum: each factor's vertices, padded with zeros
    in the other factors' coordinates."""
    dims = [len(f[0]) for f in factors]
    out = []
    for k, f in enumerate(factors):
        before, after = sum(dims[:k]), sum(dims[k + 1:])
        out += [(0,) * before + tuple(v) + (0,) * after for v in f]
    return out


HEXAGON = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
SEGMENT = [(1,), (-1,)]

POLYTOPES = {
    "cross4": _cross(4),
    "simplex5": [_unit(5, i) for i in range(5)] + [(-1,) * 5],
    "cross5": _cross(5),
    "hex+seg+seg": _free_sum(HEXAGON, SEGMENT, SEGMENT),
    "hex+hex": _free_sum(HEXAGON, HEXAGON),
    "cube4": list(itertools.product((1, -1), repeat=4)),
}

# (polytope, r) -> number of nef-partitions.
EXPECTED = {
    ("cross4", 2): 127,
    ("cross4", 3): 966,
    ("simplex5", 2): 31,
    ("simplex5", 3): 90,
    ("cross5", 2): 511,
    ("cross5", 3): 9330,
    ("hex+seg+seg", 2): 159,
    ("hex+seg+seg", 3): 772,
    ("hex+hex", 2): 199,
    ("hex+hex", 3): 594,
    ("cube4", 2): 0,
    ("cube4", 3): 0,
}

# Small enough for a definition-level oracle to recount in seconds.
SHORT = [("cross4", 2), ("simplex5", 2), ("simplex5", 3)]

REPEAT = 3  # enumeration and duality runs per input; the best of each is kept
DUALITY = 20  # partitions given to run_full_duality
SHORT_DUALITY = 2
COLD = 9  # fresh interpreters per cold-start figure
COLD_ARGS = ["nef-dual", os.path.join(SRC, "nefdual", "data", "d2_cross.poly"), "--parts", "0,2;1,3"]


def fresh(name):
    return hull([Point(c) for c in POLYTOPES[name]])


def collections():
    """The collector's collections so far, one count per generation."""
    return [stats["collections"] for stats in gc.get_stats()]


def since(counts, before):
    """``counts`` plus the collections made since ``before`` was taken."""
    return [n + now - then for n, now, then in zip(counts, collections(), before)]


def run_factor(clock, seconds):
    """The reference factor of a run that took ``seconds``, from samples
    taken now (``speed.Speed.sample``), which also go to ``clock``."""
    sampled = speed.Speed()
    sampled.sample(seconds)
    clock.refs += sampled.refs
    return sampled.factor()


def measure(name, r, repeat, duality):
    """One row of the benchmark; see the module docstring."""
    clock = speed.Speed()
    runs, factors = [], []
    duality_runs, duality_factors = [], []
    collected = [0] * len(gc.get_stats())
    passed = True
    for _ in range(repeat):
        delta = fresh(name)
        before = collections()
        started = time.perf_counter()
        found = enumerate_nef_partitions(delta, r)
        runs.append(time.perf_counter() - started)
        collected = since(collected, before)
        factors.append(run_factor(clock, runs[-1]))
        head = found[:duality]
        before = collections()
        started = time.perf_counter()
        passed = all([run_full_duality(np_).all_passed for np_ in head]) and passed
        duality_runs.append(time.perf_counter() - started)
        collected = since(collected, before)
        duality_factors.append(run_factor(clock, duality_runs[-1]))
    return {
        "name": name,
        "r": r,
        "dim": len(POLYTOPES[name][0]),
        "vertices": len(POLYTOPES[name]),
        "accepted": len(found),
        "enumerate_s": min(runs),
        "enumerate_runs_s": runs,
        "enumerate_speed_factors": factors,
        "duality_partitions": len(head),
        "duality_s": min(duality_runs),
        "duality_runs_s": duality_runs,
        "duality_speed_factors": duality_factors,
        "duality_passed": passed,
        "gc_collections": collected,
        "speed_factor": clock.factor(),
    }


def _interpreter_s(args):
    """Wall seconds of one fresh interpreter run with ``args``, and its output."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - started, out.stdout


def cold_start():
    """The cold-start row; see the module docstring."""
    clock = speed.Speed()
    imports, clis, bares = [], [], []
    for _ in range(COLD):
        took, out = _interpreter_s(
            ["-c", "import time; t = time.perf_counter(); import nefdual; print(time.perf_counter() - t)"]
        )
        imports.append(float(out))
        clis.append(_interpreter_s(["-m", "nefdual", *COLD_ARGS])[0])
        bares.append(_interpreter_s(["-c", "pass"])[0])
        clock.sample(took + clis[-1] + bares[-1])
    row = {
        "import_s": statistics.median(imports),
        "import_runs_s": imports,
        "cli_s": statistics.median(clis),
        "cli_runs_s": clis,
        "cli_args": ["nef-dual", "d2_cross.poly", *COLD_ARGS[2:]],
        "python_s": statistics.median(bares),
        "python_runs_s": bares,
        "pycache": os.path.isdir(os.path.join(SRC, "nefdual", "__pycache__")),
        "speed_factor": clock.factor(),
    }
    print(
        f"cold start   import {row['import_s']:.4f} s  cli {row['cli_s']:.4f} s"
        f"  bare python {row['python_s']:.4f} s  (medians of {COLD})"
    )
    return row


def problems(row):
    out = []
    expected = EXPECTED[(row["name"], row["r"])]
    if row["accepted"] != expected:
        out.append(f"{row['name']} r={row['r']}: {row['accepted']} nef-partitions, expected {expected}")
    if not row["duality_passed"]:
        out.append(f"{row['name']} r={row['r']}: a duality check failed")
    return out


def default_label():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+changes" if dirty else "")


def run(inputs, repeat, duality):
    rows = []
    for name, r in inputs:
        row = measure(name, r, repeat, duality)
        print(
            f"{name:12} r={r}  accepted {row['accepted']:5}  enumerate {row['enumerate_s']:8.4f} s"
            f"  duality x{row['duality_partitions']} {row['duality_s']:7.3f} s"
            f"  gc {'/'.join(map(str, row['gc_collections']))}"
        )
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--short", action="store_true", help="small inputs, one cheap run each; write nothing")
    parser.add_argument("--label", default=None, help="entry label (default: git commit)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_scale.json"))
    args = parser.parse_args(argv)

    if args.short:
        rows = run(SHORT, 1, SHORT_DUALITY)
    else:
        rows = run(list(EXPECTED), REPEAT, DUALITY)
    failures = [p for row in rows for p in problems(row)]
    for line in failures:
        print("FAIL:", line, file=sys.stderr)
    if failures:
        return 1
    if args.short:
        return 0
    entry = {
        "label": args.label or default_label(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "repeat": REPEAT,
        "duality": DUALITY,
        "rows": rows,
        "cold_start": cold_start(),
    }
    history = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            history = json.load(fh)
    history.append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
