"""Contention-scenario suite: non-paper synchronization workloads.

The paper's evaluation (fig7-fig10) exercises a fixed grid of kernels.  This
module grows the repository into a *scenario engine*: a family of
parameterized synchronization patterns whose whole point is to stress the
broadcast plane — and its MAC backoff policies — under varied contention:

* ``pc_ring``       — producer/consumer ring over SPSC channels with a shared
                      :class:`~repro.sync.cells.AtomicCell` throughput counter.
* ``rwlock``        — readers-writer lock over one atomic word, read/write mix.
* ``work_steal``    — work stealing from per-thread atomic task pools with
                      eureka (:class:`~repro.sync.eureka.OrBarrier`) termination.
* ``barrier_storm`` — back-to-back barrier episodes with skewed arrival times.
* ``mixed_phases``  — an "app-like" alternation of lock, reduction, and
                      pipeline phases separated by barriers.

Every builder is registered with :func:`~repro.runner.registry.register_workload`,
so the scenarios are sweepable over cores x Table 2 config x contention level
x backoff policy through :mod:`repro.experiments.scenarios` and the
``python -m repro run scenarios`` CLI.  :data:`SCENARIOS` is the catalog the
``python -m repro scenarios`` listing renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.isa.operations import Compute, Read, Write
from repro.runner.registry import register_workload
from repro.sync.api import SyncFactory
from repro.workloads.base import WorkloadHandle

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.manycore import Manycore


@dataclass(frozen=True)
class ScenarioInfo:
    """Catalog entry for one contention scenario."""

    name: str
    summary: str
    knobs: Tuple[Tuple[str, object], ...]   # (knob name, default value)
    example: str

    def knobs_dict(self) -> Dict[str, object]:
        return dict(self.knobs)


#: name -> catalog entry, populated by ``_scenario`` below.
SCENARIOS: Dict[str, ScenarioInfo] = {}


def scenario_names() -> List[str]:
    """Names of every registered contention scenario."""
    return sorted(SCENARIOS)


def scenario_info(name: str) -> ScenarioInfo:
    if name not in SCENARIOS:
        raise WorkloadError(
            f"unknown scenario {name!r}; known scenarios: {scenario_names()}"
        )
    return SCENARIOS[name]


def _scenario(summary: str, knobs: Tuple[Tuple[str, object], ...], example: str):
    """Register a builder both as a workload and in the scenario catalog."""

    def decorator(builder):
        name = builder.__name__.replace("build_", "")
        SCENARIOS[name] = ScenarioInfo(name, summary, knobs, example)
        return register_workload(name)(builder)

    return decorator


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WorkloadError(message)


# ---------------------------------------------------------------------------
# pc_ring: producer/consumer ring
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "producer/consumer ring: thread i feeds an SPSC channel to thread i+1 "
        "and bumps a shared AtomicCell item counter"
    ),
    knobs=(("items", 6), ("think_cycles", 120), ("num_threads", None)),
    example="python -m repro run scenarios --scenarios pc_ring --cores 16 --progress",
)
def build_pc_ring(
    machine: Manycore,
    items: int = 6,
    think_cycles: int = 120,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each thread produces ``items`` payloads downstream and consumes upstream.

    The shared item counter makes every handoff also hit one hot atomic word,
    so the channel traffic and the counter's RMW traffic contend for the same
    broadcast plane; lower ``think_cycles`` means denser contention.
    """
    _require(items >= 1, "pc_ring needs items >= 1")
    _require(think_cycles >= 0, "pc_ring think_cycles must be >= 0")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("pc_ring")
    sync = SyncFactory(program)
    channels = [sync.create_channel() for _ in range(num_threads)]
    counter = sync.create_cell()

    def body(ctx):
        me = ctx.thread_id
        downstream = channels[me]
        upstream = channels[(me - 1) % num_threads]
        checksum = 0
        for item in range(items):
            if think_cycles:
                yield Compute(ctx.rng.jitter(think_cycles, fraction=0.2))
            yield from downstream.produce(ctx, (me, item, me ^ item, item + 1))
            values = yield from upstream.consume(ctx)
            checksum += values[3]
            yield from counter.fetch_add(ctx, 1)
        return checksum

    for _ in range(num_threads):
        program.add_thread(body)
    return WorkloadHandle(
        name="pc_ring",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": items,
            "total_items": items * num_threads,
            # Completed operations = ring handoffs (each produce+consume pair).
            "operations": items * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# rwlock: readers-writer lock
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "readers-writer lock over one atomic word; threads mix shared reads "
        "with exclusive writes of a small table"
    ),
    knobs=(
        ("operations", 8), ("write_fraction", 0.2), ("read_cycles", 40),
        ("write_cycles", 80), ("think_cycles", 100), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios rwlock "
        "--contention high --progress"
    ),
)
def build_rwlock(
    machine: Manycore,
    operations: int = 8,
    write_fraction: float = 0.2,
    read_cycles: int = 40,
    write_cycles: int = 80,
    think_cycles: int = 100,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each thread performs ``operations`` reads/writes under the rwlock.

    ``write_fraction`` steers the exclusive share: 0.0 degenerates to pure
    reader throughput (one CAS per entry), 1.0 serializes everything.
    """
    _require(operations >= 1, "rwlock needs operations >= 1")
    _require(0.0 <= write_fraction <= 1.0, "rwlock write_fraction must be in [0, 1]")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("rwlock")
    sync = SyncFactory(program)
    rwlock = sync.create_rwlock()
    table = [program.alloc_shared() for _ in range(8)]

    def body(ctx):
        reads = writes = 0
        for op in range(operations):
            if think_cycles:
                yield Compute(ctx.rng.jitter(think_cycles, fraction=0.2))
            if ctx.rng.random() < write_fraction:
                yield from rwlock.acquire_write(ctx)
                yield Write(table[(ctx.thread_id + op) % len(table)], op)
                yield Compute(write_cycles)
                yield from rwlock.release_write(ctx)
                writes += 1
            else:
                yield from rwlock.acquire_read(ctx)
                yield Read(table[(ctx.thread_id + op) % len(table)])
                yield Compute(read_cycles)
                yield from rwlock.release_read(ctx)
                reads += 1
        return reads, writes

    for _ in range(num_threads):
        program.add_thread(body)
    return WorkloadHandle(
        name="rwlock",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": operations,
            "write_fraction": write_fraction,
            # Completed operations = lock-protected reads + writes, all threads.
            "operations": operations * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# work_steal: work stealing with eureka termination
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "work stealing from per-thread atomic task pools; the thread that "
        "finishes the last task posts an OrBarrier eureka"
    ),
    knobs=(
        ("tasks_per_thread", 6), ("task_cycles", 150), ("seed_stride", 1),
        ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios work_steal "
        "--backoffs broadcast_aware,exponential --progress"
    ),
)
def build_work_steal(
    machine: Manycore,
    tasks_per_thread: int = 6,
    task_cycles: int = 150,
    seed_stride: int = 1,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Threads drain atomic task pools, stealing from neighbours when empty.

    ``seed_stride`` skews the initial distribution: with stride ``s`` only
    every ``s``-th thread is seeded (with ``s`` times the work), so the other
    threads must steal from the start — the eureka/termination traffic and
    the steal CASes all land on the broadcast plane at once.  Completion is
    detected with a shared done-counter; whoever retires the last task posts
    the :class:`~repro.sync.eureka.OrBarrier` and everyone else blocks on it.

    Pools are drained with a CAS pop rather than a blind fetch&add(-1): BM
    entries are unsigned 64-bit words, so decrementing an empty pool would
    wrap to ``2**64 - 1`` and read back as claimable work.
    """
    _require(tasks_per_thread >= 1, "work_steal needs tasks_per_thread >= 1")
    _require(seed_stride >= 1, "work_steal seed_stride must be >= 1")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("work_steal")
    sync = SyncFactory(program)
    seeds = [
        tasks_per_thread * seed_stride if tid % seed_stride == 0 else 0
        for tid in range(num_threads)
    ]
    total_tasks = sum(seeds)
    pools = [sync.create_cell() for _ in range(num_threads)]
    done = sync.create_cell()
    eureka = sync.create_or_barrier()
    barrier = sync.create_barrier(num_threads)

    def try_pop(ctx, pool):
        """CAS one task out of ``pool``; returns True when a task was claimed."""
        while True:
            value = yield from pool.read(ctx)
            if value == 0:
                return False
            success, _ = yield from pool.cas(ctx, expected=value, new=value - 1)
            if success:
                return True
            # Lost the race; the winner made progress, so re-read and retry.

    def body(ctx):
        me = ctx.thread_id
        # Seed the local pool, then rendezvous so nobody steals from an
        # unseeded pool.
        yield from pools[me].write(ctx, seeds[me])
        yield from barrier.wait(ctx)
        processed = 0
        while True:
            claimed = False
            for offset in range(num_threads):
                victim = (me + offset) % num_threads
                if seeds[victim] == 0:
                    continue  # never seeded, nothing to steal
                popped = yield from try_pop(ctx, pools[victim])
                if popped:
                    claimed = True
                    yield Compute(ctx.rng.jitter(task_cycles, fraction=0.1))
                    yield Write(program.private_addr(me, processed % 64), victim + 1)
                    processed += 1
                    retired = yield from done.fetch_add(ctx, 1)
                    if retired + 1 == total_tasks:
                        yield from eureka.post(ctx)
                        return processed
                    break
            if not claimed:
                # Every pool is drained; wait for the last in-flight task.
                yield from eureka.wait(ctx)
                return processed

    for _ in range(num_threads):
        program.add_thread(body)
    return WorkloadHandle(
        name="work_steal",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": tasks_per_thread,
            "total_tasks": total_tasks,
            # Completed operations = tasks retired (conserved under stealing).
            "operations": total_tasks,
        },
    )


# ---------------------------------------------------------------------------
# barrier_storm: phased barriers with skewed arrival
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "back-to-back barrier episodes; arrival skew makes late threads hit "
        "an already-contended release wave"
    ),
    knobs=(
        ("phases", 4), ("storms_per_phase", 2), ("compute_cycles", 200),
        ("skew", 0.5), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios barrier_storm "
        "--configs WiSync,Baseline --progress"
    ),
)
def build_barrier_storm(
    machine: Manycore,
    phases: int = 4,
    storms_per_phase: int = 2,
    compute_cycles: int = 200,
    skew: float = 0.5,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each phase computes (skewed per thread) then crosses several barriers.

    ``skew`` scales per-thread compute linearly with the thread id, so high
    skew spreads arrivals out (the paper's worst case for centralized
    barriers) while ``storms_per_phase`` packs release waves back to back
    (the worst case for the MAC).
    """
    _require(phases >= 1, "barrier_storm needs phases >= 1")
    _require(storms_per_phase >= 1, "barrier_storm needs storms_per_phase >= 1")
    _require(skew >= 0.0, "barrier_storm skew must be >= 0")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("barrier_storm")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads)
    spread = max(1, num_threads - 1)

    def body(ctx):
        slowdown = 1.0 + skew * ctx.thread_id / spread
        for _ in range(phases):
            yield Compute(ctx.rng.jitter(int(compute_cycles * slowdown), fraction=0.1))
            for _ in range(storms_per_phase):
                yield from barrier.wait(ctx)
        return phases

    for _ in range(num_threads):
        program.add_thread(body)
    return WorkloadHandle(
        name="barrier_storm",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": phases,
            "barriers": phases * storms_per_phase,
            # Completed operations = barrier crossings over all threads.
            "operations": phases * storms_per_phase * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# mixed_phases: app-like alternation of synchronization styles
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "app-like phases alternating lock arrays, shared reductions, and "
        "pairwise pipelines, separated by barriers"
    ),
    knobs=(
        ("phases", 6), ("compute_cycles", 150), ("num_locks", 4),
        ("critical_cycles", 30), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios mixed_phases "
        "--cores 16,32 --progress"
    ),
)
def build_mixed_phases(
    machine: Manycore,
    phases: int = 6,
    compute_cycles: int = 150,
    num_locks: int = 4,
    critical_cycles: int = 30,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Cycles through lock, reduction, and pipeline phases under one program.

    Phase ``3k`` hammers a small lock array, phase ``3k+1`` runs a shared
    reduction, phase ``3k+2`` moves payloads through pairwise SPSC channels;
    every phase ends in a barrier, so the synchronization styles hit the
    broadcast plane in distinct, repeating bursts — the closest scenario to
    the mixed traffic of a real application.
    """
    _require(phases >= 1, "mixed_phases needs phases >= 1")
    _require(num_locks >= 1, "mixed_phases needs num_locks >= 1")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("mixed_phases")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads)
    locks = sync.create_locks(num_locks)
    reducer = sync.create_reducer()
    # One SPSC channel per full (producer, consumer) pair; with an odd thread
    # count the last thread sits pipeline phases out instead of producing
    # into a channel nobody drains.
    channels = [sync.create_channel() for _ in range(num_threads // 2)]

    def body(ctx):
        me = ctx.thread_id
        for phase in range(phases):
            yield Compute(ctx.rng.jitter(compute_cycles, fraction=0.1))
            style = phase % 3
            if style == 0:
                for acquisition in range(2):
                    lock = locks[(me + phase + acquisition) % num_locks]
                    yield from lock.acquire(ctx)
                    yield Compute(critical_cycles)
                    yield from lock.release(ctx)
            elif style == 1:
                yield from reducer.add(ctx, me + 1)
            elif me // 2 < len(channels):
                channel = channels[me // 2]
                if me % 2 == 0:
                    yield from channel.produce(ctx, (me, phase, me + phase, 1))
                else:
                    yield from channel.consume(ctx)
            yield from barrier.wait(ctx)
        return phases

    for _ in range(num_threads):
        program.add_thread(body)
    return WorkloadHandle(
        name="mixed_phases",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": phases,
            "num_locks": num_locks,
            # Completed operations = phases finished over all threads.
            "operations": phases * num_threads,
        },
    )
