"""Write golden.json: CSV digests and exact layer counts at the golden seed.

    python3 perfbench/record.py

Run when the benchmark is defined, and again only in a change that alters
vlcsim's outputs or counts on purpose; say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import numpy

import layers
from harness import GOLDEN, GOLDEN_SEED, WORKLOADS, OutputCheck


def main() -> int:
    golden = {"seed": GOLDEN_SEED, "numpy": numpy.__version__, "digests": {}, "counts": {}}
    unchecked = {"seed": None, "numpy": None, "counts": {name: {} for name in WORKLOADS}}
    for workload in WORKLOADS.values():
        check = OutputCheck(workload, GOLDEN_SEED, unchecked, numpy.__version__)
        result = layers.run_traced(workload, GOLDEN_SEED, 0, check, unchecked)
        if result["failed"]:
            print(f"record: {workload.name}: {result['failed']} operations failed", file=sys.stderr)
            return 1
        golden["digests"][workload.name] = dict(sorted(check.first.items()))
        golden["counts"][workload.name] = {
            name: value for name, (value, unit) in result["metrics"].items()
            if unit in layers.EXACT_UNITS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
