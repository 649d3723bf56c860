"""Tests of the benchmark itself: a shortened pass of every workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["sweep", "enum4d", "simplex5", "cli"]
COUNT_METRICS = ("polytope.hull.points_in", "polytope.hull.vertices_out", "nefpart.candidates",
                 "nefpart.accepted", "trace.spans")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NEFDUAL_THREADS", raising=False)


def short_run(name, seed, trace):
    result, info = run.measure(name, seed, seconds=0, trace=trace, short=True)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, info["failures"]
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 5])
def test_short_pass_passes_the_gate(name, seed):
    result = short_run(name, seed, trace=0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_call_counts_repeat_exactly(name):
    first = short_run(name, 3, trace=1)["metrics"]
    second = short_run(name, 3, trace=1)["metrics"]
    counts = [k for k in first if k.endswith(".calls") or k in COUNT_METRICS]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert sum(first[k]["value"] for k in counts if k.endswith(".calls")) > 0


def test_tracing_restores_the_program():
    import nefdual
    from nefdual import cli, duality, polytope

    before = (nefdual.hull, polytope.hull, duality.hull, cli.main, polytope.Polytope.polar_dual)
    with tracer.Tracer().installed():
        assert nefdual.hull is not before[0] and duality.hull is nefdual.hull
    after = (nefdual.hull, polytope.hull, duality.hull, cli.main, polytope.Polytope.polar_dual)
    assert after == before


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracer.per_layer_metrics()
    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
        mapped = json.load(fh)
    names = {m["name"] for m in spec["end_to_end"]} | {m[0] for m in listed}
    assert set(mapped["metrics"]) == names


def test_gate_rejects_wrong_answers():
    rec = workloads.Recorder(speed.Speed())
    workloads.check_count(rec, "enumerate x", [object()] * 6, 7)
    assert "enumerate x" in rec.failed

    golden = workloads.load_golden()
    key = "nef-dual cross2d --parts 0,1;2,3"
    req = workloads.Request(key, [], "cross2d", "nef-dual", "0,1;2,3")
    good = golden[key]["stdout"]
    points = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    workloads.check_request(req, (0, good, ""), golden[key], points, seed=0)
    with pytest.raises(workloads.GateFailure):
        workloads.check_request(req, (1, good, ""), golden[key], points, seed=0)
    bad = good.replace("involution: pass", "involution: FAIL")
    with pytest.raises(workloads.GateFailure):
        workloads.check_request(req, (0, bad, ""), golden[key], points, seed=0)
    sheared = workloads.sheared_dual_text(good, (0, 1))
    workloads.check_request(req, (0, sheared, ""), golden[key], points, seed=5)
    with pytest.raises(workloads.GateFailure):
        workloads.check_request(req, (0, good, ""), golden[key], points, seed=5)


def test_shear_preserves_pairings():
    shear = (2, 0)
    x, y = (1, -2, 3), (4, 5, -6)
    pair = sum(a * b for a, b in zip(x, y))
    sx, sy = workloads.shear_point(x, shear), workloads.shear_dual(y, shear)
    assert sum(a * b for a, b in zip(sx, sy)) == pair
