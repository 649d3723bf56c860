"""Write golden_cli.json: the seed-0 output of every request of the cli workload.

Run from the root of a checkout, at the commit whose CLI output is the
reference::

    python3 perfbench/make_golden.py

Each request keeps its exit code and the SHA-256 of its normalized output
(JSON reports without ``timings``); text outputs are kept whole, because the
gate derives the expected output for a sheared input from them.
"""

import json
import os
import shutil
import sys

from run import ROOT, SRC


def main():
    os.environ.pop("NEFDUAL_THREADS", None)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import workloads

    inputs = workloads.Cli(seed=0).setup()
    golden = {}
    try:
        for req in inputs["requests"]:
            code, stdout, stderr = workloads.cli_request(req.argv)
            entry = {
                "exit": code,
                "sha256": workloads.digest(workloads.normalized_output(req.argv, stdout, stderr)),
            }
            if "--json" not in req.argv:
                entry["stdout"] = stdout
            golden[req.key] = entry
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"requests": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} requests to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
