"""Common plumbing for workload builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.manycore import Manycore, Program
    from repro.machine.results import SimResult


@dataclass
class WorkloadHandle:
    """What a workload builder hands back to the experiment harness.

    ``metadata`` carries workload-specific quantities the experiment needs to
    normalize results (e.g. iterations per thread, total expected operations).
    """

    name: str
    machine: Manycore
    program: Program
    num_threads: int
    metadata: Dict[str, float] = field(default_factory=dict)

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Run the machine and return its result.

        A workload that declares ``metadata["operations"]`` — its total count
        of completed synchronization operations — gets that count recorded in
        ``result.extra``, where the analysis layer's per-op normalizations
        (cycles/op across contention levels) pick it up.  The count is the
        *completed* total, so a ``max_cycles``-truncated run gets no stamp
        (the planned count would make the cut-off run look spuriously cheap
        per operation).
        """
        result = self.machine.run(max_cycles=max_cycles)
        operations = self.metadata.get("operations")
        if operations is not None and result.completed:
            result.extra.setdefault("operations", float(operations))
        return result

    def cycles_per_iteration(self, result: SimResult) -> float:
        """Total cycles divided by the workload's iteration count."""
        iterations = self.metadata.get("iterations", 1) or 1
        return result.total_cycles / iterations
