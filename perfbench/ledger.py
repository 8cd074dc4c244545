"""The traced run: a per-layer ledger measured from outside the program.

Three instruments, none of them inside ``src/``:

* spans around the public call into each layer, made by the benchmark's
  own copy of the per-spec sequence that ``execute_spec`` and the
  ``Runner`` cache path perform (config, machine, workload, run, encode,
  decode, cache put, cache get), one span id per spec;
* the stdlib profiler over the same sequence, with self time and calls
  attributed to the ``repro`` package that defines each function;
* the grid through each executor, whose worker time less the simulation
  time it reports is the executor's overhead.

Spans live in memory and are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.machine.manycore import Manycore
from repro.machine.results import SimResult
from repro.runner import (
    DistributedExecutor,
    ParallelExecutor,
    REGISTRY,
    ResultCache,
    SerialExecutor,
)
from repro.runner.executor import build_config_for
from repro.runner.spec import RunSpec

from perfbench.check import Checker
from perfbench.measure import (
    OUT_DIR,
    ROOT,
    WORKERS,
    launch_seconds,
    scratch_cache,
    warm_up,
)

#: Layers the profiler attributes self time to, as ``src/repro`` packages,
#: plus ``builtins`` for functions implemented in C.
LAYERS = (
    "sim", "machine", "cpu", "sync", "mem", "noc", "wireless", "core",
    "workloads", "runner", "builtins",
)

#: Span name -> per-layer metric reported as its per-spec median.
SPAN_METRICS = {
    "runner.config": "runner.config_ms",
    "machine.build": "machine.build_ms",
    "workloads.build": "workloads.build_ms",
    "sim.run": "sim.run_ms",
    "runner.encode": "runner.encode_ms",
    "runner.decode": "runner.decode_ms",
    "runner.cache_put": "runner.cache_put_ms",
    "runner.cache_get": "runner.cache_get_ms",
}

#: Executors timed over the grid: name -> (factory, host workers it uses).
EXECUTORS: Dict[str, Tuple[Callable[[], object], int]] = {
    "serial": (SerialExecutor, 1),
    "parallel": (lambda: ParallelExecutor(WORKERS), WORKERS),
    "distributed": (lambda: DistributedExecutor(workers=WORKERS), WORKERS),
}

#: Launches per interpreter for ``cli.import_ms``.
IMPORT_LAUNCHES = 5

_REPRO_SRC = ROOT / "src" / "repro"


class Spans:
    """In-memory spans: id, name, spec id, parent id, start and end."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, str, Optional[int], Optional[int], float, float]] = []

    def add(
        self, name: str, spec: Optional[int], parent: Optional[int], start: float, end: float
    ) -> int:
        self.records.append((len(self.records), name, spec, parent, start, end))
        return len(self.records) - 1

    def close(self, span_id: int, end: float) -> None:
        """Set the end of a span opened with ``add(..., start, start)``."""
        record = self.records[span_id]
        self.records[span_id] = (*record[:5], end)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, span, _, _, start, end in self.records if span == name]

    def write(self, path: Path) -> None:
        """Write every span as JSON, times in microseconds from the first span."""
        origin = min((record[4] for record in self.records), default=0.0)
        rows = [
            {
                "id": span_id, "name": name, "spec": spec, "parent": parent,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
            }
            for span_id, name, spec, parent, start, end in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _call(spans: Optional[Spans], name: str, spec: int, parent: int, fn, *args):
    if spans is None:
        return fn(*args)
    start = time.perf_counter()
    value = fn(*args)
    spans.add(name, spec, parent, start, time.perf_counter())
    return value


def ledger_pass(
    specs: Sequence[RunSpec], cache: ResultCache, spans: Optional[Spans] = None
) -> List[Tuple[SimResult, SimResult, Optional[SimResult]]]:
    """Run each spec through every layer's public call; spans when given.

    Returns, per spec, the simulated result, its wire round trip
    (``to_dict``/``from_dict``) and its cache round trip.
    """
    rows = []
    for spec_id, spec in enumerate(specs):
        parent = -1
        if spans is not None:
            start = time.perf_counter()
            parent = spans.add("spec", spec_id, None, start, start)
        config = _call(spans, "runner.config", spec_id, parent, build_config_for, spec)
        machine = _call(spans, "machine.build", spec_id, parent, Manycore, config)
        handle = _call(
            spans, "workloads.build", spec_id, parent,
            REGISTRY.build, machine, spec.workload, spec.params_dict(),
        )
        result = _call(spans, "sim.run", spec_id, parent, handle.run, spec.max_cycles)
        payload = _call(spans, "runner.encode", spec_id, parent, result.to_dict)
        decoded = _call(spans, "runner.decode", spec_id, parent, SimResult.from_dict, payload)
        _call(spans, "runner.cache_put", spec_id, parent, cache.put, spec, result)
        cached = _call(spans, "runner.cache_get", spec_id, parent, cache.get, spec)
        if spans is not None:
            spans.close(parent, time.perf_counter())
        rows.append((result, decoded, cached))
    return rows


def check_ledger(
    checker: Checker, specs: Sequence[RunSpec], rows, where: str
) -> List[SimResult]:
    """Check every copy a ledger pass produced; return the simulated results."""
    for spec, (result, decoded, cached) in zip(specs, rows):
        checker.check(spec, result, where)
        checker.check(spec, decoded, f"{where} wire round trip")
        checker.check(spec, cached, f"{where} cache round trip")
    return [result for result, _, _ in rows]


def layer_of(filename: str) -> str:
    """The ``repro`` package defining ``filename``; ``builtins`` for C code."""
    if filename == "~":
        return "builtins"
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(_REPRO_SRC)
    except ValueError:
        return "stdlib" if filename.startswith(sys.prefix) else "other"
    return relative.parts[0] if len(relative.parts) > 1 else relative.stem


def profile_layers(work: Callable[[], object]):
    """Run ``work`` under the stdlib profiler; self seconds and calls per layer.

    Returns ``(self_seconds, calls, value)`` where ``value`` is what
    ``work`` returned.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    value = work()
    profiler.disable()
    self_seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        self_seconds[layer] += tottime
        calls[layer] += ncalls
    return dict(self_seconds), dict(calls), value


def executor_overheads(specs: Sequence[RunSpec], checker: Checker):
    """Per-spec worker seconds each executor spends outside the simulation.

    The simulation time is the ``wall_seconds`` that ``execute_spec`` stamps
    around ``handle.run`` in the same pass, so host noise between passes does
    not enter the difference.  Also returns each executor's time to its first
    result and the broker's counters.
    """
    overheads: Dict[str, float] = {}
    first: Dict[str, float] = {}
    broker: Dict[str, int] = {}
    for name, (factory, workers) in EXECUTORS.items():
        executor = factory()
        results: Dict[int, SimResult] = {}
        started = time.perf_counter()
        try:
            for position, result in executor.run_iter(specs):
                first.setdefault(name, time.perf_counter() - started)
                results[position] = result
        except ReproError as error:
            checker.problems.append(f"{name} executor: {error}")
        wall = time.perf_counter() - started
        checker.check_pass(results, f"{name} executor")
        simulated = sum(result.extra["wall_seconds"] for result in results.values())
        overheads[name] = (wall * workers - simulated) / len(specs)
        broker = getattr(executor, "last_stats", None) or broker
    checker.retries(broker.get("requeued", 0) + broker.get("expired", 0), "distributed executor")
    return overheads, first, broker


def simulated_counts(results: Sequence[SimResult]) -> Dict[str, float]:
    """Model statistics summed over the grid, and the ratios built from them."""
    total: Dict[str, float] = defaultdict(float)
    latency_sum = 0.0
    for result in results:
        stats = result.stats
        for name, counter in stats.counters.items():
            total[name] += counter.value
            if name.startswith("transceiver/"):
                total["transceiver/" + name.rsplit("/", 1)[1]] += counter.value
        histogram = stats.histograms.get("wireless/transfer_latency")
        if histogram is not None and histogram.samples:
            latency_sum += sum(histogram.samples)
            total["transfer_samples"] += len(histogram.samples)
        tracker = stats.utilizations.get("wireless/data_channel")
        if tracker is not None and tracker.busy_intervals:
            total["channel_busy"] += tracker.busy_cycles
            total["wireless_cycles"] += result.total_cycles
        total["events"] += result.events_processed
    messages = total["wireless/messages"]
    reads_writes = total["mem/reads"] + total["mem/writes"]
    return {
        "sim.events": total["events"],
        "mem.accesses": reads_writes + total["mem/atomics"],
        "mem.miss_ratio": _ratio(
            total["mem/read_misses"] + total["mem/write_misses"], reads_writes
        ),
        "mem.invalidations": total["mem/invalidations"],
        "dram.accesses": total["dram/accesses"],
        "noc.messages": total["noc/messages"],
        "noc.flit_cycles": total["noc/flit_cycles"],
        "wireless.messages": messages,
        "wireless.slot_success_ratio": _ratio(messages, messages + total["wireless/collisions"]),
        "wireless.attempts_per_message": _ratio(
            total["transceiver/sent"] + total["transceiver/collisions"], messages
        ),
        "wireless.channel_util": _ratio(total["channel_busy"], total["wireless_cycles"]),
        "wireless.transfer_latency_cycles": _ratio(latency_sum, total["transfer_samples"]),
        "tone.activations": total["tone/activations"],
        "bm.writes_applied": total["bm/writes_applied"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def import_ms() -> float:
    """Median fresh-interpreter ``import repro`` less a bare interpreter, in ms."""
    def median_launch(code: str) -> float:
        return statistics.median(launch_seconds(["-c", code]) for _ in range(IMPORT_LAUNCHES))

    return (median_launch("import repro") - median_launch("pass")) * 1e3


def traced_run(
    workload: str, specs: Sequence[RunSpec], seconds: float, checker: Checker, seed: int
) -> Tuple[Dict[str, Dict[str, float]], List[SimResult], Dict[str, float]]:
    """Every per-layer metric for ``specs``; also the results and layer shares."""
    warm_up(specs)
    cli_import_ms = import_ms()
    spans = Spans()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    results: List[SimResult] = []
    started = time.perf_counter()
    traced = False
    while time.perf_counter() - started < seconds or not walls[True]:
        with scratch_cache(f"ledger-{traced}") as cache:
            begin = time.perf_counter()
            rows = ledger_pass(specs, cache, spans if traced else None)
            walls[traced].append(time.perf_counter() - begin)
        where = f"{'traced' if traced else 'untraced'} ledger pass {len(walls[traced])}"
        results = check_ledger(checker, specs, rows, where)
        traced = not traced

    with scratch_cache("profile") as cache:
        begin = time.perf_counter()
        self_seconds, calls, rows = profile_layers(lambda: ledger_pass(specs, cache))
        profiled_wall = time.perf_counter() - begin
    profiled = check_ledger(checker, specs, rows, "profiled ledger")
    events = sum(result.events_processed for result in profiled)
    overheads, first, broker = executor_overheads(specs, checker)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        self_us = self_seconds.get(layer, 0.0) / events * 1e6
        metrics[f"{layer}.self_us_per_event"] = (self_us, "us/event")
        metrics[f"{layer}.calls_per_event"] = (calls.get(layer, 0) / events, "calls/event")
    metrics["calls_per_event"] = (sum(calls.values()) / events, "calls/event")
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_ratio"] = (profiled_wall / untraced, "ratio")
    metrics["trace.span_overhead_ratio"] = (statistics.median(walls[True]) / untraced, "ratio")
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = (statistics.median(spans.durations(span)) * 1e3, "ms")
    for name, overhead in overheads.items():
        metrics[f"runner.{name}.overhead_ms"] = (overhead * 1e3, "ms")
        metrics[f"runner.{name}.first_result_ms"] = (first.get(name, 0.0) * 1e3, "ms")
    for counter in ("requeued", "expired", "disconnects"):
        metrics[f"runner.distributed.{counter}"] = (broker.get(counter, 0), "count")
    metrics["cli.import_ms"] = (cli_import_ms, "ms")
    for name, value in simulated_counts(results).items():
        metrics[name] = (value, _COUNT_UNITS.get(name, "count"))

    spans.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    total_self = sum(self_seconds.values())
    shares = {layer: seconds / total_self for layer, seconds in sorted(self_seconds.items())}
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        results,
        shares,
    )


_COUNT_UNITS = {
    "sim.events": "events",
    "mem.miss_ratio": "ratio",
    "noc.flit_cycles": "cycles",
    "wireless.slot_success_ratio": "ratio",
    "wireless.attempts_per_message": "attempts/msg",
    "wireless.channel_util": "ratio",
    "wireless.transfer_latency_cycles": "cycles",
}
