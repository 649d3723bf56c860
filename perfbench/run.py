"""nefdual benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The benchmark imports ``nefdual`` from ``src/`` of the checkout and drives its
public API (and ``nefdual.cli.main``) in-process, as one closed-loop client.
It repeats passes over the workload's operation list (see workloads.py) until
the next pass would overrun ``--seconds``; every pass sets its inputs up
afresh, so nothing computed in one pass is reused by the next.

Every timing is corrected for the machine's speed during its pass (see
speed.py): a shared host swings by up to 2x within seconds.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py), plus the tracing overhead: traced
minus untraced pass time. Its spans go to ``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
``{"info": ...}``: the environment (Python version, nproc, git commit, seed)
and the per-kind statistics the end-to-end metrics are taken from, under the
names ``enumerate_s``, ``duality_p50_ms``, ``request_tail_ms`` and so on.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
KIND_UNITS = {"enumerate": "s", "validate": "s", "duality": "ms", "request": "ms"}


def import_program():
    """Import nefdual from this checkout's src/; (module or None, raw seconds)."""
    if not os.path.isfile(os.path.join(SRC, "nefdual", "__init__.py")):
        return None, 0.0
    sys.path.insert(0, SRC)
    start = perf_counter()
    import nefdual

    elapsed = perf_counter() - start
    if not os.path.abspath(nefdual.__file__).startswith(SRC + os.sep):
        return None, 0.0
    return nefdual, elapsed


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


class Pass:
    def __init__(self, traced, setup_s, rec, layers, factor):
        self.traced = traced
        self.setup_s = setup_s  # raw seconds
        self.times = rec.times  # (key, kind, raw seconds)
        self.failed = rec.failed
        self.attempted = rec.attempted
        self.layers = layers
        self.factor = factor  # raw seconds times this are seconds at the fixed speed


def run_pass(workload, rng, tracer, traced):
    import workloads

    gc.collect()
    clock = speed.Speed()
    ctx = nullcontext()
    if traced:
        tracer.reset_counters()
        tracer.pass_no += 1
        tracer.op = -1
        ctx = tracer.installed()
    with ctx:
        setup_s, inputs = timed_setup(workload, clock)
        rec = workloads.Recorder(clock, tracer if traced else None)
        workload.run(inputs, rec, rng)
    layers = tracer.pass_metrics() if traced else None
    return Pass(traced, setup_s, rec, layers, clock.factor())


def timed_setup(workload, clock):
    """(raw seconds, inputs) of one set-up."""
    start = perf_counter()
    inputs = workload.setup()
    raw = perf_counter() - start
    clock.sample(raw)
    return raw, inputs


def per_operation(passes, corrected=True):
    """Each operation's median time over the passes: {key: (kind, seconds)}."""
    seen = {}
    for p in passes:
        f = p.factor if corrected else 1.0
        for key, kind, raw in p.times:
            seen.setdefault(key, (kind, []))[1].append(raw * f)
    return {key: (kind, statistics.median(ts)) for key, (kind, ts) in seen.items()}


def kind_stats(passes, kind, corrected=True):
    """Median, tail and per-pass total of one kind of operation.

    The median and the tail are taken over every repeat of every operation of
    the kind. The tail sits at the highest percentile that leaves ten
    operations of the list beyond it, (n - 10.5) / n for n operations, which
    is the middle of that operation's repeats; a list of ten or fewer uses the
    middle of the slowest operation's, (n - 0.5) / n.
    """
    samples = sorted(
        raw * (p.factor if corrected else 1.0) for p in passes for _, k, raw in p.times if k == kind
    )
    if not samples:
        return None
    n = len({key for p in passes for key, k, _ in p.times if k == kind})
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    q = (n - beyond - 0.5) / n
    return {
        "p50": statistics.median(samples),
        "tail": samples[min(len(samples) - 1, int(q * len(samples)))],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "operations": n,
        "samples": len(samples),
        "total": sum(t for k, t in per_operation(passes, corrected).values() if k == kind),
    }


def pass_time(passes, corrected=True):
    """One pass over the operation list, each operation at its median time."""
    return sum(t for _, t in per_operation(passes, corrected).values())


def measure(name, seed, seconds, trace, import_s=0.0, short=False):
    """Run one workload; returns (result line dict, info dict).

    ``import_s`` is the import of nefdual, in seconds at the fixed speed.
    """
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed, short=short)
    rng = workloads.order_rng(seed)
    tracer = tracing.Tracer()
    passes = []
    start = perf_counter()
    try:
        durations = []
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            before = perf_counter()
            passes.append(run_pass(workload, rng, tracer, traced))
            durations.append(perf_counter() - before)
            have_both = not trace or len(passes) >= 2
            # stop when the next pass, as long as the longer of the last two, would overrun
            if have_both and perf_counter() - start + max(durations[-2:]) > seconds:
                break
        setups = [p.setup_s * p.factor for p in passes if not p.traced]
        while len(setups) < SETUP_SAMPLES:
            gc.collect()
            clock = speed.Speed()
            raw = timed_setup(workload, clock)[0]
            setups.append(raw * clock.factor())
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(workloads.WORK_ROOT)
        except OSError:
            pass  # another run's files are still there, or there were none

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    failures = {k: m for p in passes for k, m in p.failed.items()}
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(bool(trace)),
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_commit": git_commit(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "operation_kind": workload.kind,
        "raw_wall_s": pass_time(plain, corrected=False),
        "raw_op_p50_ms": kind_stats(plain, workload.kind, corrected=False)["p50"] * 1000.0,
        "raw_op_tail_ms": kind_stats(plain, workload.kind, corrected=False)["tail"] * 1000.0,
        "slowdown": statistics.median(1.0 / p.factor for p in plain),
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "failures": dict(list(failures.items())[:5]),
        "statistics": {},
    }
    stats = info["statistics"]
    for kind, unit in KIND_UNITS.items():
        st = kind_stats(plain, kind)
        if st is None:
            continue
        scale = 1000.0 if unit == "ms" else 1.0
        stats[f"{kind}_s"] = {"value": st["total"], "unit": "s"}
        stats[f"{kind}_p50_{unit}"] = {"value": st["p50"] * scale, "unit": unit}
        stats[f"{kind}_tail_{unit}"] = {"value": st["tail"] * scale, "unit": unit}
        stats[f"{kind}_tail_at"] = {
            "percentile": st["tail_percentile"],
            "operations_beyond": st["tail_beyond"],
            "operations": st["operations"],
            "samples": st["samples"],
        }
    primary = kind_stats(plain, workload.kind)

    if trace:
        layers = {
            metric: statistics.median(p.layers[metric] for p in traced)
            for metric, _, _ in tracing.per_layer_metrics()
            if metric != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
        metrics = {
            metric: {"value": layers[metric], "unit": unit}
            for metric, unit, _ in tracing.per_layer_metrics()
        }
        tracer.write_spans(os.path.join("perfbench", "_out", f"spans_{name}.tsv.gz"))
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "wall_s": {"value": pass_time(plain), "unit": "s"},
            "op_p50_ms": {"value": primary["p50"] * 1000.0, "unit": "ms"},
            "op_tail_ms": {"value": primary["tail"] * 1000.0, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "enum4d", "simplex5", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # enumeration runs its default single-thread path
    os.environ.pop("NEFDUAL_THREADS", None)
    os.chdir(ROOT)
    program, import_s = import_program()
    if program is None:
        print(f"error: no nefdual package under {SRC}", file=sys.stderr)
        return 2
    clock = speed.Speed()
    clock.sample(import_s)
    import_s *= clock.factor()
    result, info = measure(args.workload, args.seed, args.seconds, args.trace, import_s)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
