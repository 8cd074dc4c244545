"""WiSync core architecture: the paper's primary contribution.

This package models the per-core Broadcast Memory (BM), the BM controller
with its Write Completion and Atomicity Failure bits, TLB-based BM address
translation with PID-tagged chunk protection, the tone controller with its
AllocB/ActiveB tables, and the :class:`~repro.core.fabric.BroadcastFabric`
that connects all of it to the wireless Data and Tone channels.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.allocator": ("BmAllocator",),
    "repro.core.bm_controller": ("BmController", "RmwResult"),
    "repro.core.broadcast_memory": ("BmEntry", "BroadcastMemory"),
    "repro.core.fabric": ("BroadcastFabric",),
    "repro.core.node": ("WiSyncNode",),
    "repro.core.tone_controller": ("ToneController",),
    "repro.core.translation": ("BmTlb", "PageMapping"),
})

__all__ = [
    "BmEntry",
    "BroadcastMemory",
    "BmAllocator",
    "BmController",
    "RmwResult",
    "BroadcastFabric",
    "WiSyncNode",
    "ToneController",
    "BmTlb",
    "PageMapping",
]
