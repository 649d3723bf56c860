"""The scale benchmark's short mode, and its counts against the definition."""

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
