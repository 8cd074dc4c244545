"""Re-pin ``expected.json``: per-spec digests for the default seed.

    python3 perfbench/pin.py

Run this only when a change is meant to alter simulated results (a model
change), and say so in the change; a simulator-only change must leave the
pinned digests as they are.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pinned_record(workload: str) -> dict:
    from perfbench.check import digest, sim_cycles, wisync_speedup
    from perfbench.specs import DEFAULT_SEED, REFERENCE_CONFIG, grid
    from repro.runner.executor import execute_spec

    specs = grid(workload, DEFAULT_SEED)
    results = [execute_spec(spec) for spec in specs]
    return {
        "digests": {spec.key(): digest(result) for spec, result in zip(specs, results)},
        "sim_cycles": sim_cycles(results),
        "wisync_speedup": wisync_speedup(specs, results, REFERENCE_CONFIG[workload]),
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.check import EXPECTED_PATH
    from perfbench.specs import DEFAULT_SEED, WORKLOADS

    record = {
        "seed": DEFAULT_SEED,
        "workloads": {workload: pinned_record(workload) for workload in WORKLOADS},
    }
    EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
