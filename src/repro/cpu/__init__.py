"""Core and thread timing abstractions.

The paper models out-of-order 2-issue x86 cores at 1 GHz; synchronization
results are dominated by memory-system and wireless latencies, so the core
model here is timing-abstract: a thread issues operations, the core accounts
for its busy/stalled cycles, and compute phases advance time directly.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cpu.core": ("Core",),
    "repro.cpu.thread": ("SimThread", "ThreadContext", "ThreadState"),
})

__all__ = ["Core", "SimThread", "ThreadContext", "ThreadState"]
