"""Correctness check for every simulated result the benchmark sees.

A result is reduced to a digest of its cycle counts, event count and stats
snapshot.  For the default seed the digests are pinned in ``expected.json``;
for any seed, every later sighting of a spec (another pass, the traced
ledger, another executor, the cache and wire round trip) must give the
digest of its first sighting.  Each mismatch, missing result or broker
retry counts as one failed spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.machine.results import SimResult
from repro.runner.spec import RunSpec

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(result: SimResult) -> str:
    """sha256 over everything a simulator-only change must leave unchanged."""
    canonical = json.dumps(
        {
            "total_cycles": result.total_cycles,
            "thread_cycles": list(result.thread_cycles),
            "events_processed": result.events_processed,
            "completed": result.completed,
            "finished_threads": result.finished_threads,
            "stats": result.stats.snapshot(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sim_cycles(results: Sequence[SimResult]) -> int:
    """Simulated cycles summed over the grid."""
    return sum(result.total_cycles for result in results)


def wisync_speedup(
    specs: Sequence[RunSpec], results: Sequence[SimResult], reference: str
) -> float:
    """Geomean over spec groups of reference-config cycles over WiSync cycles.

    A group is every spec that shares workload, parameters, core count and
    variant.  Within a group the ratio of the two configurations' geomeans
    is used, which equals the geomean of pairwise ratios for any pairing.
    """
    logs: Dict[tuple, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for spec, result in zip(specs, results):
        group = (spec.workload, spec.params, spec.num_cores, spec.variant)
        logs[group][spec.config].append(math.log(result.total_cycles))
    ratios = [
        _mean(by_config[reference]) - _mean(by_config["WiSync"])
        for by_config in logs.values()
        if by_config.get(reference) and by_config.get("WiSync")
    ]
    if not ratios:
        raise ValueError(f"grid pairs no {reference} spec with a WiSync spec")
    return math.exp(_mean(ratios))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def load_expected(workload: str) -> Optional[Dict[str, object]]:
    """The pinned record for ``workload`` at the default seed, if any."""
    try:
        pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return pinned["workloads"].get(workload)


class Checker:
    """Counts attempted and failed specs across every pass of one run."""

    def __init__(self, specs: Sequence[RunSpec], pinned: Optional[Dict[str, str]] = None):
        self.specs = list(specs)
        #: spec key -> digest every sighting must match.
        self.reference: Dict[str, str] = dict(pinned or {})
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, spec: RunSpec, result: Optional[SimResult], where: str) -> bool:
        """Check one sighting of ``spec``'s result; None means it never arrived."""
        self.attempted += 1
        if result is None:
            return self._fail(f"{where}: no result for [{spec.label()}]")
        if not result.completed or result.finished_threads != result.total_threads:
            return self._fail(f"{where}: [{spec.label()}] did not run to completion")
        seen = digest(result)
        expected = self.reference.setdefault(spec.key(), seen)
        if seen != expected:
            return self._fail(f"{where}: [{spec.label()}] differs from its reference result")
        return True

    def check_pass(self, results: Dict[int, SimResult], where: str) -> None:
        """Check one pass over the grid, given results by spec position."""
        for position, spec in enumerate(self.specs):
            self.check(spec, results.get(position), where)

    def check_value(self, name: str, seen: object, expected: object) -> None:
        """Compare a grid-level figure with its pinned value (no attempt counted)."""
        if seen != expected:
            self._fail(f"{name} is {seen!r}, pinned {expected!r}")

    def retries(self, count: int, where: str) -> None:
        """Count specs the broker requeued or expired as failed attempts."""
        if count:
            self.attempted += count
            self.failed += count
            self.problems.append(f"{where}: {count} spec(s) requeued or expired")

    def _fail(self, problem: str) -> bool:
        self.failed += 1
        self.problems.append(problem)
        return False

    @property
    def correct(self) -> bool:
        return self.failed == 0
