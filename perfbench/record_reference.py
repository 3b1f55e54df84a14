"""Record perfbench/reference.json from the checkout's current fraclap.

    python3 perfbench/record_reference.py

Runs every benchmark call once and stores what checks.py extracts from its
output: numbers and hashes, never whole files. Re-record only on purpose,
from a commit whose outputs are known to be right.
"""

import json
import shutil
import sys

import checks
from run import REFERENCE, WORK, WORKLOADS, launch, provenance


def main():
    calls = {}
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for workload, workload_calls in WORKLOADS.items():
            for i, call in enumerate(workload_calls):
                calldir = workdir / f"{workload}{i}"
                res = launch(call, calldir)
                if res.returncode != 0:
                    print(f"{call.name}: exit code {res.returncode}", file=sys.stderr)
                    return 1
                calls[call.name] = checks.extract(call.kind, calldir / "out")
                print(f"{call.name}: {res.wall_s:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = provenance(seed=None)
    REFERENCE.write_text(json.dumps(
        {"recorded_from": {"git_commit": info["git_commit"],
                           "source_sha256": info["source_sha256"]},
         "calls": calls}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
