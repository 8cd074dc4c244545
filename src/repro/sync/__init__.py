"""Software synchronization algorithms for every architecture configuration.

Each primitive is expressed as generator methods that yield abstract
operations, so the same workload code runs on all four Table 2
configurations: the :class:`~repro.sync.api.SyncFactory` picks CAS spin
locks / centralized barriers (Baseline), MCS locks / tournament barriers
(Baseline+), or the wireless and tone-channel algorithms of Section 4.3
(WiSyncNoT / WiSync).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sync.api": ("SyncFactory",),
    "repro.sync.barriers": (
        "Barrier",
        "CentralizedBarrier",
        "ToneBarrier",
        "TournamentBarrier",
        "WirelessBarrier",
    ),
    "repro.sync.cells": ("AtomicCell", "BroadcastCell", "CachedCell"),
    "repro.sync.eureka": ("OrBarrier",),
    "repro.sync.locks": ("CasSpinLock", "Lock", "McsLock", "WirelessLock"),
    "repro.sync.producer_consumer": ("ProducerConsumerChannel",),
    "repro.sync.reduction": ("Reducer",),
    "repro.sync.rwlock": ("ReadersWriterLock",),
})

__all__ = [
    "SyncFactory",
    "Barrier",
    "CentralizedBarrier",
    "TournamentBarrier",
    "WirelessBarrier",
    "ToneBarrier",
    "Lock",
    "CasSpinLock",
    "McsLock",
    "WirelessLock",
    "AtomicCell",
    "CachedCell",
    "BroadcastCell",
    "OrBarrier",
    "Reducer",
    "ProducerConsumerChannel",
    "ReadersWriterLock",
]
