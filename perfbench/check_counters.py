"""The benchmark's own test: its deterministic counters repeat exactly.

Runs every workload (or the ones named on the command line) twice in traced
mode at one seed and compares the ``counters`` section of the two reports —
elements, sweeps, tiles, kernel calls per class, program and transpile cache
hits and misses, noise plans compiled, ledger records and VER403
certifications of the first traced operation.  These are the counts a later
change may name in a claim, so they must not depend on timing.

From the repository root::

    python3 perfbench/check_counters.py [workload ...]

Exits 0 when every workload repeats its counters, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7
SECONDS = "2"


def traced_counters(workload: str) -> dict:
    subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", SECONDS,
            "--trace", "1",
        ],
        cwd=HERE.parent,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    report = json.loads((HERE / "out" / f"{workload}-trace1.json").read_text(encoding="utf-8"))
    if report["failed"]:
        raise SystemExit(f"{workload}: checks failed: {report['failures']}")
    return report["counters"]


def main(argv) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = argv or [workload["name"] for workload in benchmark["workloads"]]
    mismatched = 0
    for workload in workloads:
        first, second = traced_counters(workload), traced_counters(workload)
        differing = sorted(
            name for name in first.keys() | second.keys() if first.get(name) != second.get(name)
        )
        status = "ok" if not differing else "MISMATCH " + ", ".join(
            f"{name}: {first.get(name)} vs {second.get(name)}" for name in differing
        )
        print(f"{workload}: {len(first)} counters {status}")
        mismatched += bool(differing)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
