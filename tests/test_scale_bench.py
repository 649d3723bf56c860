"""The scale benchmark's short mode, and its counts against the definition."""

import gc

import oracles


def test_short_mode_counts_are_the_definitions(capsys, monkeypatch, scale_bench):
    scale = scale_bench
    for name, r in scale.SHORT:
        coords = scale.POLYTOPES[name]
        found = oracles.oracle_nef_partitions(coords, len(coords[0]), r)
        assert scale.EXPECTED[(name, r)] == len(found), (name, r)
    assert scale.main(["--short"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(scale.SHORT)

    name, r = scale.SHORT[0]
    monkeypatch.setitem(scale.EXPECTED, (name, r), scale.EXPECTED[(name, r)] + 1)
    assert scale.main(["--short"]) == 1
    assert f"FAIL: {name} r={r}" in capsys.readouterr().err


def test_each_row_counts_the_collectors_collections(capsys, scale_bench):
    """A row records the collections per generation over its runs, and the
    printed line shows them."""
    name, r = scale_bench.SHORT[0]
    rows = scale_bench.run([(name, r)], 1, scale_bench.SHORT_DUALITY)
    counts = rows[0]["gc_collections"]
    assert len(counts) == len(gc.get_stats())
    assert all(type(n) is int and n >= 0 for n in counts)
    assert capsys.readouterr().out.rstrip().endswith("gc " + "/".join(map(str, counts)))


def test_each_run_keeps_its_own_speed_factor(scale_bench):
    """A row keeps the reference factor sampled after each enumeration and
    duality run beside that run's time, and its ``speed_factor`` is the
    factor of all those samples together."""
    name, r = scale_bench.SHORT[0]
    (row,) = scale_bench.run([(name, r)], 2, scale_bench.SHORT_DUALITY)
    for times, factors in (("enumerate_runs_s", "enumerate_speed_factors"), ("duality_runs_s", "duality_speed_factors")):
        assert len(row[factors]) == len(row[times]) == 2
        assert all(type(f) is float and f > 0 for f in row[factors])
    every = row["enumerate_speed_factors"] + row["duality_speed_factors"]
    assert min(every) <= row["speed_factor"] <= max(every)
