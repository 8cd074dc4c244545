"""Fast tests of the benchmark itself, on tiny slices of its grids."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.machine.results import SimResult  # noqa: E402
from repro.runner.executor import execute_spec  # noqa: E402

from perfbench import check  # noqa: E402
from perfbench.ledger import profile_layers  # noqa: E402
from perfbench.run import benchmark  # noqa: E402
from perfbench.specs import DEFAULT_SEED, WORKLOADS, grid  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def _units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["paper", "fanout"])
def test_end_to_end_metrics_are_emitted_with_units(workload):
    outcome = benchmark(
        workload, DEFAULT_SEED, seconds=0.01, trace=False,
        specs=grid(workload, DEFAULT_SEED)[:4], min_samples=2,
    )
    result = outcome["result"]
    assert _units(result) == _declared("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_per_layer_metrics_are_emitted_with_units():
    outcome = benchmark(
        "contention", DEFAULT_SEED, seconds=0.01, trace=True,
        specs=grid("contention", DEFAULT_SEED)[:4],
    )
    result = outcome["result"]
    assert _units(result) == _declared("per_layer")
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["sim.events"]["value"] > 0


def test_perturbed_result_is_caught(monkeypatch):
    decode = SimResult.from_dict

    def perturbed(payload):
        result = decode(payload)
        result.total_cycles += 1
        return result

    # Every cache replay decodes through from_dict, so each replayed spec
    # must now disagree with its pinned digest.
    monkeypatch.setattr(SimResult, "from_dict", staticmethod(perturbed))
    specs = grid("paper", DEFAULT_SEED)[:4]
    outcome = benchmark("paper", DEFAULT_SEED, seconds=0.01, trace=False,
                        specs=specs, min_samples=2)
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] >= len(specs)


def test_checker_without_pins_requires_agreement():
    spec = grid("paper", seed=7)[0]
    checker = check.Checker([spec])
    result = execute_spec(spec)
    assert checker.check(spec, result, "first")
    result.stats.counter("mem/reads").add(1)
    assert not checker.check(spec, result, "second")
    assert (checker.attempted, checker.failed) == (2, 1)


def test_checker_counts_missing_results_and_retries():
    specs = grid("fanout", DEFAULT_SEED)[:3]
    checker = check.Checker(specs)
    checker.check_pass({}, "empty pass")
    checker.retries(2, "broker")
    assert (checker.attempted, checker.failed) == (5, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_only_the_spec_seeds(workload):
    one, two = grid(workload, 1), grid(workload, 2)
    assert grid(workload, 1) == one
    assert len(one) == len(two) == len({spec.key() for spec in one})
    assert [dataclasses.replace(spec, seed=0) for spec in one] == [
        dataclasses.replace(spec, seed=0) for spec in two
    ]
    assert [spec.seed for spec in one] != [spec.seed for spec in two]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_digests_cover_the_default_grid(workload):
    pinned = check.load_expected(workload)
    assert set(pinned["digests"]) == {spec.key() for spec in grid(workload, DEFAULT_SEED)}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="call counts are fixed per interpreter; the baseline was taken on 3.11",
)
def test_profiler_aggregation_matches_the_fig7_calls_per_event_baseline():
    from repro.runner.profile import PROFILE_SWEEPS

    specs = list(PROFILE_SWEEPS["fig7"](False))
    for spec in specs:
        execute_spec(spec)  # memoized dispatch and lazy imports settle untimed

    def sweep():
        return sum(execute_spec(spec).events_processed for spec in specs)

    _, calls, events = profile_layers(sweep)
    # Baseline: 2,962,262 calls over 61,154 events on Python 3.11.7.
    assert events == 61_154
    assert sum(calls.values()) / events == pytest.approx(2_962_262 / 61_154, rel=1e-4)


def test_incorrect_result_exits_nonzero(monkeypatch, capsys):
    from perfbench import run

    result = {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "benchmark", lambda *args: {"summary": [], "result": result})
    assert run.main(["--workload", "paper", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
