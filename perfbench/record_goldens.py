"""Record the benchmark's goldens from the current source tree.

    python3 perfbench/record_goldens.py

Runs every seed-independent query once and writes perfbench/goldens.json.
The goldens are the correctness reference of every later run, so re-record
only when a change of output is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    goldens = {}
    for workload in workloads.WORKLOADS:
        for q in workloads.build_queries(workload, ROOT, seed=0):
            if q.golden is not None:
                goldens[q.label] = q.golden(q.fn())
                print(f"recorded {q.label}", flush=True)
    (BENCH_DIR / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
