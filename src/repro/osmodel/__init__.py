"""Operating-system model: processes, BM virtual memory, scheduling.

WiSync is designed to work under multiprogramming, virtual memory, context
switching and (when the Tone channel is not used) thread migration
(Sections 3.1 and 5.2).  This package provides the OS-level pieces: a process
table with PIDs, per-process virtual mapping of broadcast-memory pages, and a
scheduler that supports preemption and migration with the paper's tone-
barrier restriction.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.osmodel.process": ("OsProcess", "ProcessTable"),
    "repro.osmodel.scheduler": ("Scheduler", "ThreadPlacement"),
    "repro.osmodel.vm": ("BmVirtualMemory",),
})

__all__ = ["OsProcess", "ProcessTable", "Scheduler", "ThreadPlacement", "BmVirtualMemory"]
