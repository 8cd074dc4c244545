"""The architecture configurations compared in the paper.

Table 2:

============  ====  ===============  ========  ============
Config        BM?   Broadcast HW     Locks     Barriers
============  ====  ===============  ========  ============
Baseline      No    No               CAS       Centralized
Baseline+     No    Virtual tree     MCS       Tournament
WiSyncNoT     Yes   Wireless (Data)  Wireless  Wireless
WiSync        Yes   Wireless (D+T)   Wireless  Wireless/Tone
============  ====  ===============  ========  ============

Table 6 sensitivity variants (Default, SlowNet, SlowNet+L2, FastNet,
SlowBMEM) are produced by :func:`sensitivity_variants`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from repro.config import (
    CacheConfig,
    MachineConfig,
    NocConfig,
    SyncConfig,
    ToneChannelConfig,
)
from repro.errors import ConfigurationError


def baseline(num_cores: int = 64, seed: int = 2016) -> MachineConfig:
    """Plain manycore: no wireless hardware, CAS locks, centralized barrier."""
    return MachineConfig(
        name="baseline",
        num_cores=num_cores,
        wisync_enabled=False,
        noc=NocConfig(tree_broadcast=False),
        tone_channel=ToneChannelConfig(enabled=False),
        sync=SyncConfig(lock_kind="cas_spin", barrier_kind="centralized", reduction_kind="lock"),
        seed=seed,
    ).validate()


def baseline_plus(num_cores: int = 64, seed: int = 2016) -> MachineConfig:
    """Enhanced conventional manycore: tree broadcast, MCS locks, tournament barriers."""
    return MachineConfig(
        name="baseline+",
        num_cores=num_cores,
        wisync_enabled=False,
        noc=NocConfig(tree_broadcast=True),
        tone_channel=ToneChannelConfig(enabled=False),
        sync=SyncConfig(lock_kind="mcs", barrier_kind="tournament", reduction_kind="lock"),
        seed=seed,
    ).validate()


def wisync_not(num_cores: int = 64, seed: int = 2016) -> MachineConfig:
    """WiSync without the Tone channel: all synchronization on the Data channel."""
    return MachineConfig(
        name="wisync-not",
        num_cores=num_cores,
        wisync_enabled=True,
        tone_channel=ToneChannelConfig(enabled=False),
        sync=SyncConfig(lock_kind="wireless", barrier_kind="wireless", reduction_kind="wireless"),
        seed=seed,
    ).validate()


def wisync(num_cores: int = 64, seed: int = 2016) -> MachineConfig:
    """Full WiSync: Data channel plus Tone channel barriers."""
    return MachineConfig(
        name="wisync",
        num_cores=num_cores,
        wisync_enabled=True,
        tone_channel=ToneChannelConfig(enabled=True),
        sync=SyncConfig(lock_kind="wireless", barrier_kind="tone", reduction_kind="wireless"),
        seed=seed,
    ).validate()


#: The Table 2 configurations by their paper label, in presentation order.
CONFIG_BUILDERS: Dict[str, Callable[..., MachineConfig]] = {
    "Baseline": baseline,
    "Baseline+": baseline_plus,
    "WiSyncNoT": wisync_not,
    "WiSync": wisync,
}


def paper_configurations(num_cores: int = 64, seed: int = 2016) -> List[MachineConfig]:
    """The four Table 2 configurations, in the paper's order."""
    return [
        baseline(num_cores, seed),
        baseline_plus(num_cores, seed),
        wisync_not(num_cores, seed),
        wisync(num_cores, seed),
    ]


def config_by_name(name: str, num_cores: int = 64, seed: int = 2016) -> MachineConfig:
    """Look up a Table 2 configuration by its name."""
    builders = {
        "baseline": baseline,
        "baseline+": baseline_plus,
        "wisync-not": wisync_not,
        "wisyncnot": wisync_not,
        "wisync": wisync,
    }
    key = name.lower()
    if key not in builders:
        raise ConfigurationError(f"unknown configuration {name!r}; choices: {sorted(builders)}")
    return builders[key](num_cores, seed)


def sensitivity_variants(base: MachineConfig) -> Dict[str, MachineConfig]:
    """The Table 6 memory/network variants applied to ``base``.

    ============  ======  ======  =============
    Variant       L2 RT   BM RT   Net hop (cyc)
    ============  ======  ======  =============
    Default       6       2       4
    SlowNet       6       2       6
    SlowNet+L2    12      2       6
    FastNet       6       2       2
    SlowBMEM      6       4       4
    ============  ======  ======  =============
    """
    def with_params(name: str, l2: int, bm_rt: int, hop: int) -> MachineConfig:
        return base.replace(
            name=f"{base.name}/{name}",
            cache=replace(base.cache, l2_latency=l2),
            noc=replace(base.noc, hop_latency=hop),
            bm=replace(base.bm, round_trip=bm_rt),
        ).validate()

    return {
        "Default": with_params("default", l2=6, bm_rt=2, hop=4),
        "SlowNet": with_params("slownet", l2=6, bm_rt=2, hop=6),
        "SlowNet+L2": with_params("slownet+l2", l2=12, bm_rt=2, hop=6),
        "FastNet": with_params("fastnet", l2=6, bm_rt=2, hop=2),
        "SlowBMEM": with_params("slowbmem", l2=6, bm_rt=4, hop=4),
    }


def variant_names(num_cores: int = 64) -> List[str]:
    """The Table 6 variant names, in the paper's order."""
    return list(sensitivity_variants(baseline(num_cores=num_cores)))
