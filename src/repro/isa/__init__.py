"""Abstract operations that simulated threads issue.

Workloads are plain Python generators.  Each ``yield`` hands the machine an
operation object from :mod:`repro.isa.operations`; the machine executes it on
the timing models (caches, NoC, wireless network, broadcast memory) and sends
back the architectural result (loaded value, CAS success flag, ...).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa.operations": (
        "AtomicOp",
        "BmAlloc",
        "BmBulkLoad",
        "BmBulkStore",
        "BmFree",
        "BmLoad",
        "BmRmw",
        "BmStore",
        "BmWaitUntil",
        "Compute",
        "Fence",
        "Read",
        "RmwKind",
        "ToneBarrierAlloc",
        "ToneLoad",
        "ToneStore",
        "ToneWait",
        "WaitUntil",
        "Write",
    ),
})

__all__ = [
    "Compute",
    "Read",
    "Write",
    "AtomicOp",
    "RmwKind",
    "WaitUntil",
    "Fence",
    "BmAlloc",
    "BmFree",
    "BmLoad",
    "BmStore",
    "BmBulkLoad",
    "BmBulkStore",
    "BmRmw",
    "BmWaitUntil",
    "ToneBarrierAlloc",
    "ToneStore",
    "ToneLoad",
    "ToneWait",
]
