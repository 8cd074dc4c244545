"""``python -m repro profile``: the perf-regression harness.

Times a fixed, deterministic sweep per experiment family, reports throughput
as **events/sec** (discrete engine events fired divided by wall-clock), and
writes a ``BENCH_<experiment>.json`` record so the repository's performance
trajectory is measurable commit over commit and gateable in CI.

Methodology notes:

* The sweep grid is pinned per experiment (``--quick`` selects a smaller
  pinned grid) so successive runs time the same work.
* Specs run serially through :func:`~repro.runner.executor.execute_spec`
  with no result cache — the point is to exercise the simulator hot path,
  not to skip it.
* The sweep is repeated ``--repeats`` times and the **best** wall-clock is
  reported: minimum-of-N is the standard estimator for "speed of the code"
  under scheduler noise (the true cost can only be over-measured).
* Events/sec is a simulator-side metric: it counts engine events, so it is
  comparable across machines only as an order of magnitude, but comparable
  across commits on the same machine — which is what the CI gate uses.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.runner.executor import execute_spec
from repro.runner.spec import SweepSpec


def _fig7(quick: bool) -> SweepSpec:
    from repro.experiments.fig7_tightloop import fig7_sweep

    if quick:
        return fig7_sweep(core_counts=[16, 32], iterations=3)
    return fig7_sweep(core_counts=[16, 32, 64], iterations=5)


def _fig8(quick: bool) -> SweepSpec:
    from repro.experiments.fig8_livermore import fig8_sweep
    from repro.workloads.livermore import LivermoreLoop

    if quick:
        return fig8_sweep(
            loops=[LivermoreLoop.INNER_PRODUCT],
            core_counts=[16],
            vector_lengths={LivermoreLoop.INNER_PRODUCT: [64]},
            repetitions=1,
        )
    return fig8_sweep(core_counts=[16, 64], repetitions=1)


def _fig9(quick: bool) -> SweepSpec:
    from repro.experiments.fig9_cas import fig9_sweep

    if quick:
        return fig9_sweep(core_counts=[16], critical_sections=[16], successes_per_thread=3)
    return fig9_sweep(core_counts=[16, 64], critical_sections=[16, 256])


def _fig10(quick: bool) -> SweepSpec:
    from repro.experiments.fig10_applications import fig10_sweep
    from repro.workloads.synthetic_apps import application_names

    if quick:
        return fig10_sweep(apps=application_names()[:1], num_cores=16, phase_scale=0.25)
    return fig10_sweep(apps=application_names()[:2], num_cores=64, phase_scale=0.5)


def _scenarios(quick: bool) -> SweepSpec:
    from repro.experiments.scenarios import scenario_sweep

    if quick:
        return scenario_sweep(
            scenarios=["barrier_storm", "rwlock", "work_steal"],
            core_counts=[16],
            configs=["WiSync"],
            contention=["high"],
        )
    return scenario_sweep(
        core_counts=[16],
        configs=["Baseline", "WiSync"],
        contention=["low", "high"],
        backoffs=["broadcast_aware", "exponential"],
    )


#: Experiment name -> pinned sweep builder (``builder(quick) -> SweepSpec``).
PROFILE_SWEEPS: Dict[str, Callable[[bool], SweepSpec]] = {
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "scenarios": _scenarios,
}


#: Snapshot-restore micro-benchmark cut points (fractions of the full run).
RESTORE_CUTS = (0.10, 0.50, 0.90)


def profile_names() -> List[str]:
    from repro.runner.cli import PROFILE_NAMES

    return list(PROFILE_NAMES)


def _restore_spec(quick: bool):
    """The pinned frame-ported spec the restore micro-benchmark cuts up."""
    from repro.runner.spec import RunSpec

    return RunSpec(
        workload="tightloop",
        params={"iterations": 30 if quick else 100},
        config="WiSync",
        num_cores=16,
        seed=7,
    )


def _time_restore(snapshot) -> float:
    from repro.snapshot import SpecExecution

    started = time.perf_counter()
    SpecExecution.from_snapshot(snapshot)
    return time.perf_counter() - started


def _run_restore_profile(quick: bool, repeats: int) -> Dict[str, object]:
    """Benchmark ``SpecExecution.from_snapshot``: native vs forced replay.

    For each pinned cut fraction the same capture is restored both ways —
    once through the native O(state) codec and once with the strategy
    downgraded to replay (machine payload dropped), which fast-forwards
    ``cut`` events.  Native restore cost should be flat across cuts while
    replay grows with the cut depth; the headline ``events_per_sec`` is the
    number of simulated events the native restores *skipped* per second of
    restore work, so a regression that degrades native restore (or silently
    falls back to replay) collapses the metric and trips the CI gate.
    """
    from repro.snapshot import STRATEGY_REPLAY, Snapshot, snapshot_after

    spec = _restore_spec(quick)
    total = execute_spec(spec).events_processed
    cuts: List[Dict[str, object]] = []
    native_events = 0
    native_wall = 0.0
    for fraction in RESTORE_CUTS:
        cut = max(1, min(int(total * fraction), total - 1))
        native_snap = snapshot_after(spec, cut)
        replay_snap = Snapshot(
            spec=native_snap.spec,
            events_processed=cut,
            clock=native_snap.clock,
            strategy=STRATEGY_REPLAY,
            native=native_snap.native,
        )
        native_best = min(_time_restore(native_snap) for _ in range(repeats))
        replay_best = min(_time_restore(replay_snap) for _ in range(repeats))
        native_events += cut
        native_wall += native_best
        cuts.append({
            "fraction": fraction,
            "events": cut,
            "native_seconds": round(native_best, 6),
            "replay_seconds": round(replay_best, 6),
            "replay_over_native": (
                round(replay_best / native_best, 1) if native_best > 0 else None
            ),
        })
    return {
        "experiment": "restore",
        "quick": quick,
        "grid_points": len(cuts),
        "repeats": repeats,
        "events": native_events,
        "wall_seconds": round(native_wall, 6),
        "events_per_sec": round(native_events / native_wall, 1),
        "total_events": total,
        "spec": spec.label(),
        "cuts": cuts,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_profile(
    experiment: str,
    quick: bool = False,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time the pinned sweep for ``experiment``; return the benchmark record."""
    if repeats < 1:
        raise ReproError("--repeats must be at least 1")
    if experiment == "restore":
        return _run_restore_profile(quick, repeats)
    if experiment not in PROFILE_SWEEPS:
        raise ReproError(
            f"no profile sweep for {experiment!r}; choices: {profile_names()}"
        )
    sweep = PROFILE_SWEEPS[experiment](quick)
    specs = list(sweep)
    runs: List[Dict[str, float]] = []
    events = 0
    for _ in range(repeats):
        events = 0
        started = time.perf_counter()
        for spec in specs:
            result = execute_spec(spec)
            events += result.events_processed
        wall = time.perf_counter() - started
        runs.append({"wall_seconds": wall, "events_per_sec": events / wall})
    best = min(runs, key=lambda run: run["wall_seconds"])
    return {
        "experiment": experiment,
        "quick": quick,
        "grid_points": len(specs),
        "repeats": repeats,
        "events": events,
        "wall_seconds": round(best["wall_seconds"], 4),
        "events_per_sec": round(best["events_per_sec"], 1),
        "runs": [
            {"wall_seconds": round(r["wall_seconds"], 4),
             "events_per_sec": round(r["events_per_sec"], 1)}
            for r in runs
        ],
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def compare_to_baseline(
    record: Dict[str, object],
    baseline_path: str,
    max_regression: float,
) -> Optional[str]:
    """Return an error message if ``record`` regresses past the baseline.

    The gate triggers when events/sec drops more than ``max_regression``
    (a fraction, e.g. 0.30) below the committed baseline's events/sec.
    Improvements never fail.  The check itself is
    :func:`repro.analysis.compare.compare_frames` — the same implementation
    behind ``python -m repro compare`` and the CI perf-smoke job.
    """
    from repro.analysis.compare import bench_frame, compare_frames

    try:
        with open(baseline_path, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read baseline {baseline_path!r}: {error}")
    if float(baseline.get("events_per_sec") or 0.0) <= 0:
        raise ReproError(f"baseline {baseline_path!r} has no events_per_sec")
    comparison = compare_frames(
        bench_frame(baseline),
        bench_frame(record),
        metrics=("events_per_sec",),
        thresholds={"events_per_sec": max_regression},
    )
    if comparison.ok:
        return None
    worst = comparison.worst("events_per_sec")
    return (
        f"perf regression: {worst.candidate:,.0f} events/sec is "
        f"{worst.change * 100:.1f}% below baseline "
        f"{worst.baseline:,.0f} (allowed {max_regression * 100:.0f}%)"
    )


def write_bench(record: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=2, sort_keys=True)
        stream.write("\n")


def default_bench_path(experiment: str) -> str:
    return f"BENCH_{experiment}.json"


def format_record(record: Dict[str, object]) -> str:
    """One-paragraph human rendering of a benchmark record."""
    lines = [
        f"profile {record['experiment']}"
        + (" (quick)" if record["quick"] else "")
        + f": {record['grid_points']} grid points, "
        + f"{record['events']:,} events",
        f"best of {record['repeats']}: {record['wall_seconds']}s wall, "
        f"{float(record['events_per_sec']):,.0f} events/sec",
    ]
    for cut in record.get("cuts") or []:
        lines.append(
            f"  cut {float(cut['fraction']):.0%} ({cut['events']:,} events): "
            f"native {float(cut['native_seconds']) * 1e3:.2f}ms, "
            f"replay {float(cut['replay_seconds']) * 1e3:.2f}ms "
            f"({cut['replay_over_native']}x)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin CLI
    """Entry point used by ``python -m repro profile`` (see runner.cli)."""
    from repro.runner.cli import main as cli_main

    return cli_main(["profile"] + list(argv or []))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
