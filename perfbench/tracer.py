"""Spans around the public functions of each nefdual module, from outside.

``Tracer.installed()`` wraps every traced function in every ``nefdual``
module namespace that binds it (and ``Polytope.polar_dual`` on its class),
and restores the originals on exit. Private helpers are not wrapped, so
their cost lands in the self time of the public caller.

Each span is kept in memory as (name, start, end, parent span, operation id)
and written out by ``write_spans``. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import nefdual as nd

# (module, attribute) of each traced public function; "Polytope.polar_dual"
# is the method. These names, with ".calls" and ".self_s", are per-layer metrics.
TRACED = [
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "solve"),
    ("linalg", "rank"),
    ("polytope", "hull"),
    ("polytope", "Polytope.polar_dual"),
    ("polytope", "minkowski_sum"),
    ("fan", "face_fan"),
    ("fan", "pl_from_vertex_values"),
    ("fan", "support_polytope"),
    ("nefpart", "enumerate_nef_partitions"),
    ("nefpart", "validate_partition"),
    ("nefpart", "check_relations"),
    ("duality", "nabla"),
    ("duality", "dual_nef_partition"),
    ("duality", "run_full_duality"),
    ("duality", "verify_polar_is_nabla_sum"),
    ("duality", "verify_nabla_polar_is_delta_sum"),
    ("duality", "verify_nabla_reflexive"),
    ("duality", "verify_delta_parts_from_dual"),
    ("duality", "verify_involution"),
    ("fileio", "parse_polytope_text"),
    ("fileio", "parse_partition_spec"),
    ("fileio", "file_to_canonical_map"),
    ("report", "partition_report"),
    ("report", "enumeration_report"),
    ("cli", "main"),
    ("corpus", "load_corpus"),
]


def span_name(module, attr):
    return f"{module}.{attr.rpartition('.')[2]}"


SPAN_NAMES = [span_name(m, a) for m, a in TRACED]
DUALITY = "duality.run_full_duality"
ENUMERATE = "nefpart.enumerate_nef_partitions"
EXTRA_METRICS = [
    ("polytope.hull.points_in", "count", "lower"),
    ("polytope.hull.vertices_out", "count", "lower"),
    ("polytope.hull.per_duality", "count", "lower"),
    ("polytope.polar_dual.per_duality", "count", "lower"),
    ("nefpart.validate_partition.accepted_s", "s", "lower"),
    ("nefpart.validate_partition.rejected_s", "s", "lower"),
    ("nefpart.candidates", "count", "lower"),
    ("nefpart.accepted", "count", "higher"),
    ("nefpart.accept_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + EXTRA_METRICS


class Tracer:
    def __init__(self):
        self.op = -1  # operation id the benchmark is issuing; -1 during set-up
        self.pass_no = 0
        self._stack = []  # one [child_seconds, span_id] frame per open span
        self._active = Counter()
        self.name_ids = {n: k for k, n in enumerate(SPAN_NAMES)}
        # spans as parallel arrays: far smaller than a tuple per span
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_pass = array("i")
        self.reset_counters()

    def reset_counters(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()

    def _wrap(self, name, fn):
        stack, active = self._stack, self._active
        name_id = self.name_ids[name]
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            if name == "polytope.hull":  # its points may be a one-shot iterator
                args = (list(args[0]),) + args[1:]
            parent = stack[-1][1] if stack else -1
            span_id = len(tracer.s_start)
            tracer.s_name.append(name_id)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            tracer.s_parent.append(parent)
            tracer.s_op.append(tracer.op)
            tracer.s_pass.append(tracer.pass_no)
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tracer.s_start[span_id] = start
                tracer.s_end[span_id] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[0]
            if post is not None:
                post(args, result, dur, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # per-function extras, called after a traced call returns

    def _post_polytope_hull(self, args, result, dur, parent):
        self.extra["polytope.hull.points_in"] += len(args[0])
        self.extra["polytope.hull.vertices_out"] += len(result.vertices)
        if self._active[DUALITY]:
            self.extra["polytope.hull.in_duality"] += 1

    def _post_polytope_polar_dual(self, args, result, dur, parent):
        if self._active[DUALITY]:
            self.extra["polytope.polar_dual.in_duality"] += 1

    def _post_nefpart_validate_partition(self, args, result, dur, parent):
        accepted = isinstance(result, nd.NefPartition)
        key = "accepted_s" if accepted else "rejected_s"
        self.extra[f"nefpart.validate_partition.{key}"] += dur
        if parent >= 0 and self.s_name[parent] == self.name_ids[ENUMERATE]:
            self.extra["nefpart.candidates"] += 1
            self.extra["nefpart.accepted"] += accepted

    def installed(self):
        return _Installed(self)

    def pass_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        ex = self.extra
        runs = self.calls[DUALITY]
        for key in (
            "polytope.hull.points_in",
            "polytope.hull.vertices_out",
            "nefpart.validate_partition.accepted_s",
            "nefpart.validate_partition.rejected_s",
            "nefpart.candidates",
            "nefpart.accepted",
        ):
            out[key] = ex[key]
        out["polytope.hull.per_duality"] = ex["polytope.hull.in_duality"] / runs if runs else 0.0
        out["polytope.polar_dual.per_duality"] = (
            ex["polytope.polar_dual.in_duality"] / runs if runs else 0.0
        )
        cands = ex["nefpart.candidates"]
        out["nefpart.accept_ratio"] = ex["nefpart.accepted"] / cands if cands else 0.0
        out["trace.spans"] = sum(self.calls.values())
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line to a gzip file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\tpass\n")
            for k in range(len(self.s_start)):
                fh.write(
                    f"{k}\t{SPAN_NAMES[self.s_name[k]]}\t{self.s_start[k]:.9f}\t"
                    f"{self.s_end[k]:.9f}\t{self.s_parent[k]}\t{self.s_op[k]}\t{self.s_pass[k]}\n"
                )


class _Installed:
    """Context manager that swaps the wrappers in and the originals back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "nefdual" or k.startswith("nefdual.")]
        for module, attr in TRACED:
            name = span_name(module, attr)
            owner = sys.modules[f"nefdual.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.tracer._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self.tracer._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        return self.tracer

    def _set(self, target, key, value):
        self.undo.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def __exit__(self, *exc):
        for target, key, value in reversed(self.undo):
            setattr(target, key, value)
        self.undo.clear()
        return False
