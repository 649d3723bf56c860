"""The reach scan of ``bench/reach.py`` on the workloads' short plans."""

import importlib.util
import os


def test_the_short_scan_lists_the_functions_no_pass_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert reach.main(["--short"]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    lines = {name: int(n) for n, name in (row.split() for row in rows)}
    assert lines["polytope.Polytope.lattice_points"] > 0
    assert "polytope.hull" not in lines
    assert "duality.run_full_duality" not in lines
    assert total.split()[0] == str(sum(lines.values()))
    assert f"in {len(lines)} functions" in total
    # the cli workload's request files went to a directory of their own
    assert list(tmp_path.iterdir()) == []
