"""Fault-injection probe for executor and distributed-fabric drills.

Not part of the paper's evaluation: ``fault_probe`` exists so tests — and
operators running chaos drills against a worker fleet — can inject
deterministic workload-level failures through the exact
spec -> registry -> ``execute_spec`` path every real sweep uses.  On success
it behaves as a short TightLoop, so it still produces a genuine
:class:`~repro.machine.results.SimResult`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.errors import WorkloadError
from repro.runner.registry import register_workload
from repro.workloads.base import WorkloadHandle
from repro.workloads.tightloop import build_tightloop

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.manycore import Manycore


@register_workload("fault_probe")
def build_fault_probe(
    machine: Manycore,
    mode: str = "ok",
    marker: Optional[str] = None,
    fail_count: int = 1,
    iterations: int = 1,
) -> WorkloadHandle:
    """A TightLoop that can be told to fail: always, N times, hard, or never.

    ``mode="raise"`` fails every attempt (a deterministically bad spec);
    ``mode="exit"`` kills the executing process outright (a segfault
    stand-in — under a process pool this breaks the whole pool);
    ``marker=<path>`` counts attempts in the file and fails the first
    ``fail_count`` of them — the retry-then-succeed scenario.  The default
    ``mode="ok"`` never fails.
    """
    if marker is not None:
        attempts = 0
        if os.path.exists(marker):
            attempts = int(Path(marker).read_text(encoding="utf-8").strip() or 0)
        if attempts < fail_count:
            with open(marker, "w", encoding="utf-8") as stream:
                stream.write(f"{attempts + 1}\n")
            raise WorkloadError(
                f"fault_probe: injected failure on attempt {attempts + 1} "
                f"(marker {marker})"
            )
    elif mode == "raise":
        raise WorkloadError("fault_probe: injected failure")
    elif mode == "exit":
        os._exit(3)
    elif mode != "ok":
        raise WorkloadError(f"fault_probe: unknown mode {mode!r}")
    return build_tightloop(machine, iterations=iterations)
