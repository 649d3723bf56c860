"""Exhaustive nef-partition search over the bundled corpus.

Decides once which vertex subsets are nef (their indicator extends to an
integral convex piecewise-linear function), then finds every cover of the
vertex set by r disjoint nef subsets: those covers are the nef-partitions
into r parts. Output order is deterministic. The same search is available
from the command line:

    nefdual nef-enumerate src/nefdual/data/d2_cross.poly -r 2
"""

import time

from nefdual import corpus_entry, enumerate_nef_partitions, run_full_duality


def fmt(point):
    return "(" + ", ".join(str(c) for c in point.coords) + ")"

for name, r in [
    ("cross2d", 2),
    ("cross2d", 3),
    ("square2d", 2),
    ("hexagon", 2),
    ("octahedron", 2),
    ("cube", 2),
]:
    delta = corpus_entry(name).polytope
    started = time.perf_counter()
    found = enumerate_nef_partitions(delta, r)
    elapsed = time.perf_counter() - started
    print(f"{name} r={r}: {len(found)} valid nef-partitions ({elapsed:.2f}s)")
    for np_ in found[:4]:
        parts = [" ".join(fmt(delta.vertices[i]) for i in sorted(part)) for part in np_.parts]
        print("   ", " | ".join(parts))
    if len(found) > 4:
        print(f"    ... and {len(found) - 4} more")

# every partition the search returns survives the full duality check suite
delta = corpus_entry("octahedron").polytope
results = [run_full_duality(np_) for np_ in enumerate_nef_partitions(delta, 2)]
print("octahedron r=2: all duality checks pass:",
      all(res.all_passed for res in results))
