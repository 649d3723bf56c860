"""Regenerate the golden CLI outputs in this directory.

Usage, from the repository root:

    python3 tests/golden/regen.py

The cases are the ``TEXT_CASES`` and ``JSON_CASES`` tables of
``tests/test_cli.py``, which compares against these files. Text outputs are
stored byte for byte. JSON outputs are stored after that module's
``normalize_report``: the ``timings`` field is dropped (wall-clock, never
reproducible) and ``input.file`` is reduced to its basename so the goldens
do not depend on where the tree is checked out.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from test_cli import JSON_CASES, TEXT_CASES, normalize_report  # noqa: E402

from nefdual.cli import main  # noqa: E402


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def main_regen():
    for name, (want_code, argv) in TEXT_CASES.items():
        code, out = run(argv)
        assert code == want_code, f"{name}: exit {code}, expected {want_code}"
        (HERE / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({len(out)} bytes)")
    for name, (want_code, argv) in JSON_CASES.items():
        code, out = run(argv)
        assert code == want_code, f"{name}: exit {code}, expected {want_code}"
        rep = normalize_report(json.loads(out))
        (HERE / name).write_text(json.dumps(rep, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {name}")


if __name__ == "__main__":
    main_regen()
