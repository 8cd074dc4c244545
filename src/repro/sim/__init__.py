"""Discrete-event simulation engine used by every timing model in repro.

The engine is deliberately small: a cycle-granular event queue
(:class:`~repro.sim.engine.Simulator`), deterministic per-component random
number streams (:class:`~repro.sim.rng.DeterministicRng`), and statistics
helpers (:mod:`repro.sim.stats`).  Higher layers (memory, NoC, wireless,
machine) schedule callbacks on the shared simulator instance.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.events": ("Event",),
    "repro.sim.process": ("SimProcess", "Timeout", "WaitCondition"),
    "repro.sim.rng": ("DeterministicRng",),
    "repro.sim.stats": ("Counter", "Histogram", "StatsRegistry", "UtilizationTracker"),
})

__all__ = [
    "Simulator",
    "Event",
    "SimProcess",
    "Timeout",
    "WaitCondition",
    "DeterministicRng",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "UtilizationTracker",
]
