"""Machine assembly: the full manycore and the paper's configurations.

:class:`~repro.machine.manycore.Manycore` wires the simulation engine, the
cached-memory hierarchy, the wired mesh, and (when enabled) the WiSync
wireless fabric into one simulated chip, and drives workload threads over it.
:mod:`repro.machine.configs` builds the four configurations of Table 2
(Baseline, Baseline+, WiSyncNoT, WiSync) and the Table 6 sensitivity variants.
:class:`~repro.machine.results.SimResult` is JSON-serializable
(``to_dict``/``from_dict``, stats snapshot included) so results survive the
parallel executor's process boundary and the on-disk result cache of
:mod:`repro.runner`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machine.configs": (
        "baseline",
        "baseline_plus",
        "config_by_name",
        "paper_configurations",
        "sensitivity_variants",
        "wisync",
        "wisync_not",
    ),
    "repro.machine.manycore": ("Manycore", "Program"),
    "repro.machine.results": ("SimResult",),
})

__all__ = [
    "Manycore",
    "Program",
    "SimResult",
    "baseline",
    "baseline_plus",
    "wisync",
    "wisync_not",
    "paper_configurations",
    "sensitivity_variants",
    "config_by_name",
]
