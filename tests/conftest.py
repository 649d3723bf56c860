import importlib.util
import os
import sys
import time

import pytest

from nefdual import polytope
from nefdual.corpus import load_corpus
from nefdual.duality import run_full_duality
from nefdual.fileio import file_to_canonical_map, parse_partition_spec
from nefdual.nefpart import NefPartition, enumerate_nef_partitions, validate_partition

SWEEP_NAMES = ("cross2d", "square2d", "hexagon", "octahedron", "cube")
SWEEP_RS = (2, 3)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {entry.name: entry for entry in corpus}


@pytest.fixture(scope="session")
def scale_bench():
    """``bench/scale.py`` as a module: its inputs, expected counts and main."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "scale.py")
    spec = importlib.util.spec_from_file_location("scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def from_spec(corpus_by_name):
    """Validate a file-order partition spec against a named corpus entry."""

    def build(name: str, spec: str) -> NefPartition:
        entry = corpus_by_name[name]
        parts = parse_partition_spec(spec, len(entry.file_points))
        mapping = file_to_canonical_map(entry.polytope, entry.file_points)
        out = validate_partition(
            entry.polytope, [[mapping[i] for i in part] for part in parts]
        )
        assert isinstance(out, NefPartition), f"{name} [{spec}]: {out}"
        return out

    return build


@pytest.fixture(scope="session")
def sweep(corpus_by_name):
    """Full enumeration plus duality runs for the five sweep polytopes.

    Keyed by (name, r) with the found partitions, their DualityResults, and
    the wall time of the whole (name, r) pass. Several acceptance criteria
    share this; computing it once keeps the suite fast.
    """
    out = {}
    for name in SWEEP_NAMES:
        delta = corpus_by_name[name].polytope
        for r in SWEEP_RS:
            started = time.perf_counter()
            found = enumerate_nef_partitions(delta, r)
            results = [(np_, run_full_duality(np_)) for np_ in found]
            out[(name, r)] = {
                "results": results,
                "elapsed": time.perf_counter() - started,
            }
    return out


def _bind_hull(monkeypatch, wrapper):
    """Put ``wrapper(original_hull, points)`` in place of every binding of
    ``hull`` in nefdual."""
    original = polytope.hull

    def bound(points):
        return wrapper(original, points)

    for name, module in list(sys.modules.items()):
        if name == "nefdual" or name.startswith("nefdual."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, bound)


@pytest.fixture
def count_hulls(monkeypatch):
    """Count the ``hull`` calls of a run: ``count_hulls(fn, *args)`` runs
    ``fn(*args)`` with every binding of ``hull`` in nefdual counted and
    returns the number of calls."""
    calls = []

    def counted(original, points):
        calls.append(1)
        return original(points)

    _bind_hull(monkeypatch, counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    return count
