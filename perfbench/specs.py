"""The RunSpec grids each benchmark workload hands to the program.

Each grid is fixed in shape; the benchmark ``--seed`` only draws the
simulation seed of every spec, so two seeds run the same kinds of work on
different random streams and nothing else changes.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List

from repro.experiments.fig7_tightloop import fig7_sweep
from repro.experiments.fig8_livermore import fig8_sweep
from repro.experiments.fig9_cas import fig9_sweep
from repro.experiments.scenarios import scenario_sweep
from repro.runner.spec import RunSpec
from repro.workloads.livermore import LivermoreLoop

#: The four Table 2 configurations.
TABLE2 = ["Baseline", "Baseline+", "WiSyncNoT", "WiSync"]

#: Seed whose per-spec results are pinned in ``expected.json``.
DEFAULT_SEED = 0

#: Distinct simulation seeds in the ``fanout`` grid (two specs per seed).
FANOUT_SEEDS = 32


def _paper() -> List[RunSpec]:
    # Livermore loop 6 is left out: one 64-core Baseline run of it costs as
    # much host time as the rest of the grid, which would leave too few
    # repetitions per measured window to take a stable median.
    loops = [LivermoreLoop.ICCG, LivermoreLoop.INNER_PRODUCT]
    return [
        *fig7_sweep(core_counts=[16, 64], iterations=5, configs=TABLE2),
        *fig9_sweep(
            core_counts=[16, 64],
            critical_sections=[16],
            successes_per_thread=2,
            configs=TABLE2,
        ),
        *fig8_sweep(
            loops=loops,
            core_counts=[16, 64],
            vector_lengths={loop: [64] for loop in loops},
            repetitions=1,
            configs=TABLE2,
        ),
    ]


def _contention() -> List[RunSpec]:
    return list(scenario_sweep(
        core_counts=[16, 32],
        configs=["WiSyncNoT", "WiSync"],
        contention=["high"],
        backoffs=["broadcast_aware", "exponential"],
    ))


def _fanout() -> List[RunSpec]:
    # Seeds are drawn per pair in grid(); the placeholder seeds here only
    # keep the template specs distinct.
    return [
        RunSpec(
            workload="tightloop",
            params={"iterations": 3},
            config=config,
            num_cores=16,
            seed=index,
        )
        for index in range(FANOUT_SEEDS)
        for config in ("Baseline", "WiSync")
    ]


_TEMPLATES = {"paper": _paper, "contention": _contention, "fanout": _fanout}

#: Workload names, in BENCHMARK.json order.
WORKLOADS = list(_TEMPLATES)

#: The configuration WiSync's speed-up is measured against, per workload.
#: ``contention`` has no wired machine, so its reference is WiSync without
#: the tone channel.
REFERENCE_CONFIG: Dict[str, str] = {
    "paper": "Baseline",
    "contention": "WiSyncNoT",
    "fanout": "Baseline",
}


def grid(workload: str, seed: int) -> List[RunSpec]:
    """The workload's specs with simulation seeds drawn from ``seed``.

    Specs that differ only in configuration share one drawn seed, so every
    WiSync spec has a reference-configuration twin on the same random stream.
    The largest machines come first: the first result is then a spec long
    enough that its latency is not lost in host timer noise.
    """
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    drawn: Dict[tuple, int] = {}
    specs = []
    for spec in _TEMPLATES[workload]():
        twin = (spec.workload, spec.params, spec.num_cores, spec.variant, spec.seed)
        while twin not in drawn:
            # Distinct draws keep the fanout pairs distinct specs.
            candidate = rng.randrange(2**31)
            if candidate not in drawn.values():
                drawn[twin] = candidate
        specs.append(dataclasses.replace(spec, seed=drawn[twin]))
    return sorted(specs, key=lambda spec: -spec.num_cores)
