"""Job and lease state: the one broker state machine of the run fabric.

A *job* is one submitted :class:`~repro.runner.spec.SweepSpec`: a named,
prioritized batch of specs sharing a worker pool with every other live job.
:class:`JobStore` owns all job and task state under one lock.  The sweep
service (``repro serve``) runs one long-lived store for many tenants; a
distributed sweep (``repro run --distributed``/``--bind``, through
:class:`~repro.runner.distributed.Broker`) runs an embedded store holding
exactly one job.  Both reach their workers through the same
:class:`~repro.service.daemon.ServiceBroker` message loop.

* **leases** — every assignment carries a deadline that the worker's
  heartbeats extend; an expired lease, a dropped connection or a reported
  error requeues the spec with that worker excluded, and a spec that
  exhausts its attempts fails instead of wedging its job;
* **fair-share assignment** across jobs via
  :class:`~repro.service.scheduler.FairShareScheduler` — deterministic
  stride interleaving weighted by per-job priority;
* **per-job retry budgets and worker exclusions** — one tenant's crashing
  specs never exclude workers from another tenant's job;
* **broker-side cache short-circuit** — a submitted spec whose sha256
  :meth:`~repro.runner.spec.RunSpec.key` is already in the store's
  :class:`~repro.runner.cache.ResultCache` completes instantly, never
  reaching a worker (``stats["short_circuited"]``);
* **cross-job coalescing** — a spec already in flight for another job is
  not queued twice; followers adopt the head's result on completion
  (``stats["coalesced"]``), and a failed or cancelled head promotes the
  next follower with its *own* job's fresh attempt budget;
* **cancellation** — queued specs are dropped immediately, leased specs
  are refunded exactly once (``stats["refunded"]``) and go terminal; a
  straggler worker's late result is still banked in the cache and
  completes any successor chain for the key;
* **deadlines and abort** — a spec deadline (from first assignment) and a
  job deadline (from submission) fail wedged specs as ``timed_out``;
  :meth:`JobStore.abort` fails a job's live specs.  Neither is journaled:
  both are session policy, not durable facts about a spec;
* **checkpoints** — shipped snapshots resume a spec mid-run on the next
  assignee, and with a ``checkpoint_dir`` they are also kept on disk;
* **durability** — every transition is written ahead to a journal, so a
  SIGKILL'd daemon restarted on the same ``--journal``/``--cache``
  directories resumes every live job (see :meth:`JobStore.recover`).
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, ServiceError
from repro.machine.results import SimResult
from repro.runner.distributed import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.runner.executor import describe_error
from repro.runner.spec import RunSpec, SweepSpec
from repro.runner.supervisor import backoff_delays
from repro.service.scheduler import FairShareScheduler

if TYPE_CHECKING:
    from repro.runner.cache import ResultCache
    from repro.runner.journal import BrokerJournal, TaskReplay

#: ``backoff_delays`` (base, cap) seconds for the pause before a requeued
#: task may fall back to a worker it excludes (see :meth:`_Task.pace_retry`).
EXCLUSION_BACKOFF = (0.5, 8.0)
#: Longest :meth:`JobStore.next_reply` holds an idle worker's ``next``
#: waiting for a task to be queued again or the store to drain.
IDLE_HOLD_SECONDS = 0.05
#: Pause an idle worker takes before asking again when nothing it may run
#: is queued.
IDLE_DELAY_SECONDS = 0.05

#: Job lifecycle states (the ``state`` field of every job summary).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_COMPLETED = "completed"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: Task states; ``cancelled`` marks specs dropped by a job cancellation and
#: is terminal like ``done``/``failed``.
_READY, _LEASED, _DONE, _FAILED = "ready", "leased", "done", "failed"
_CANCELLED = "cancelled"

_TERMINAL_TASK_STATES = (_DONE, _FAILED, _CANCELLED)
TERMINAL_JOB_STATES = (JOB_COMPLETED, JOB_FAILED, JOB_CANCELLED)


class _Task:
    __slots__ = ("position", "payload", "state", "attempts", "excluded",
                 "worker", "deadline", "errors", "checkpoint", "key",
                 "first_assigned", "timed_out", "retry_at", "backoff")

    def __init__(self, position: int, spec: RunSpec) -> None:
        self.position = position
        self.payload = spec.to_dict()
        #: Spec content key (sha256): journal records are keyed by it, so
        #: they survive grid renumbering across restarts.
        self.key = spec.key()
        self.state = _READY
        self.attempts = 0
        self.excluded: Set[str] = set()
        self.worker: Optional[str] = None
        self.deadline = 0.0
        self.errors: List[str] = []
        #: Latest shipped :class:`~repro.snapshot.Snapshot`, if any; attached
        #: to the next assignment so a replacement worker resumes mid-spec.
        self.checkpoint: Optional[Any] = None
        #: Monotonic time of the *first* assignment — the spec deadline
        #: measures total time-in-flight, not per-attempt time.
        self.first_assigned: Optional[float] = None
        #: True when a deadline, not worker errors, failed this task.
        self.timed_out = False
        #: Monotonic time before which the exclusion fallback holds this task
        #: back, and the backoff schedule that sets it (see pace_retry).
        self.retry_at = 0.0
        self.backoff: Optional[Iterator[float]] = None

    def pace_retry(self, now: float, rng: random.Random) -> None:
        """Pause the exclusion fallback for this requeued task.

        Exclusion is best-effort: a task that excludes every connected
        worker falls back to one of them rather than wedge its job.  A
        worker that fails instantly (broken environment) would otherwise
        take its own retry straight back and burn the whole attempt budget
        before a healthy worker has even connected.  Successive pauses grow
        along :data:`EXCLUSION_BACKOFF`; a worker the task does not exclude
        is never held back.
        """
        if self.backoff is None:
            self.backoff = backoff_delays(*EXCLUSION_BACKOFF, rng=rng)
        self.retry_at = now + next(self.backoff)

    def fallback_ready(self, workers: Set[str], now: float) -> bool:
        """May the exclusion fallback hand this task to one of ``workers``?"""
        return workers <= self.excluded and self.retry_at <= now


def format_task_id(job_id: str, position: int) -> str:
    """Wire task id: ``<job-id>/<position>`` (workers echo it opaquely)."""
    return f"{job_id}/{position}"


def parse_task_id(task_id: Any) -> Optional[Tuple[str, int]]:
    """Parse a wire task id back into ``(job_id, position)``; None if foreign."""
    if not isinstance(task_id, str):
        return None
    job_id, separator, position = task_id.rpartition("/")
    if not separator or not job_id or not position.isdigit():
        return None
    return job_id, int(position)


class Job:
    """One tenant's submitted sweep: tasks, queue, results, counters."""

    def __init__(
        self, job_id: str, name: str, priority: int, sweep: SweepSpec
    ) -> None:
        self.job_id = job_id
        self.name = name
        self.priority = priority
        self.sweep = sweep
        self.state = JOB_QUEUED
        self.tasks = [
            _Task(position, spec) for position, spec in enumerate(sweep.specs)
        ]
        #: Positions ready for assignment (excludes coalesced followers).
        self.ready: Deque[int] = deque()
        self.outstanding = len(self.tasks)
        self.results: Dict[int, SimResult] = {}
        self.failures: Dict[int, str] = {}
        #: Done and failed positions in the order they went terminal: the
        #: stream :meth:`JobStore.events` delivers.
        self.finished: List[int] = []
        #: Positions answered from the result cache (never reached a worker).
        self.cached: Set[int] = set()
        self.short_circuited = 0
        self.coalesced = 0
        self.refunded = 0
        # Host-side wall clock for display only; service/ is outside the
        # sim-core packages, so DET001's path scope exempts it.
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        #: Monotonic submission time: the job deadline counts from here.
        self.submitted = time.monotonic()

    def counts(self) -> Dict[str, int]:
        counts = {"pending": 0, "leased": 0, "done": 0,
                  "failed": 0, "cancelled": 0}
        for task in self.tasks:
            if task.state == _READY:
                counts["pending"] += 1
            elif task.state == _LEASED:
                counts["leased"] += 1
            elif task.state == _DONE:
                counts["done"] += 1
            elif task.state == _FAILED:
                counts["failed"] += 1
            else:
                counts["cancelled"] += 1
        return counts

    def summary(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "job": self.job_id,
            "name": self.name,
            "state": self.state,
            "priority": self.priority,
            "total": len(self.tasks),
            "pending": counts["pending"],
            "leased": counts["leased"],
            "done": counts["done"],
            "failed": counts["failed"],
            "cancelled": counts["cancelled"],
            "short_circuited": self.short_circuited,
            "coalesced": self.coalesced,
            "refunded": self.refunded,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }

    def detail(self) -> Dict[str, Any]:
        payload = self.summary()
        payload["specs"] = [
            {
                "position": task.position,
                "spec": task.payload,
                "state": task.state,
                "attempts": task.attempts,
                "cached": task.position in self.cached,
                "errors": list(task.errors),
            }
            for task in self.tasks
        ]
        return payload

    def results_payload(self) -> Dict[str, Any]:
        """SweepResult-shaped document for ``GET /jobs/<id>/results``."""
        runs = [
            {
                "spec": self.tasks[position].payload,
                "result": self.results[position].to_dict(),
                "cached": position in self.cached,
            }
            for position in sorted(self.results)
        ]
        failures = [
            {"spec": self.tasks[position].payload, "reason": reason}
            for position, reason in sorted(self.failures.items())
        ]
        return {
            "job": self.job_id,
            "name": self.name,
            "state": self.state,
            "sweep": self.sweep.name,
            "total": len(self.tasks),
            "runs": runs,
            "failures": failures,
        }


class JobStore:
    """All job/task state of one broker, under one lock.

    The TCP plane (:class:`~repro.service.daemon.ServiceBroker`) calls
    :meth:`claim_worker` / :meth:`next_reply` / :meth:`complete` /
    :meth:`error` / :meth:`heartbeat` / :meth:`checkpoint` /
    :meth:`release` / :meth:`drop_worker`, and its monitor thread calls
    :meth:`expire_leases`; the HTTP plane calls :meth:`submit` /
    :meth:`cancel` and the query methods; a sweep host reads a job's
    outcomes from :meth:`events`.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        journal: Optional[BrokerJournal] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        spec_deadline_seconds: Optional[float] = None,
        sweep_deadline_seconds: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                "checkpoint_every must be a positive event count"
            )
        if spec_deadline_seconds is not None and spec_deadline_seconds <= 0:
            raise ConfigurationError("spec_deadline_seconds must be positive")
        if sweep_deadline_seconds is not None and sweep_deadline_seconds <= 0:
            raise ConfigurationError("sweep_deadline_seconds must be positive")
        self._rng = rng or random.Random()
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.spec_deadline_seconds = spec_deadline_seconds
        self.sweep_deadline_seconds = sweep_deadline_seconds
        #: Seconds between :meth:`expire_leases` ticks: fine enough to catch
        #: an expired lease or a passed deadline within a quarter of it.
        interval = min(0.5, lease_seconds / 4.0)
        for deadline in (spec_deadline_seconds, sweep_deadline_seconds):
            if deadline is not None:
                interval = min(interval, deadline / 4.0)
        self.monitor_interval = max(interval, 0.02)
        self._journal = journal
        self._lock = threading.Lock()
        #: Notified under ``_lock`` whenever a task is queued (submission,
        #: requeue, release) or goes terminal: wakes the idle workers
        #: :meth:`next_reply` holds and the readers of :meth:`events`.
        self._changed = threading.Condition(self._lock)
        self._sealed = False
        self._jobs: Dict[str, Job] = {}  # insertion order = submission order
        self._scheduler = FairShareScheduler()
        #: Spec key -> [(job_id, position), ...]: the head entry is the one
        #: queued/leased copy of the spec; the rest are coalesced followers.
        self._inflight: Dict[str, List[Tuple[str, int]]] = {}
        self._workers: Set[str] = set()
        self._counter = 0
        self.stats: Dict[str, int] = {
            "jobs_submitted": 0, "jobs_completed": 0, "jobs_failed": 0,
            "jobs_cancelled": 0, "assigned": 0, "completed": 0, "failed": 0,
            "requeued": 0, "expired": 0, "disconnects": 0, "duplicates": 0,
            "checkpoints": 0, "released": 0, "resumed": 0, "replayed": 0,
            "short_circuited": 0, "coalesced": 0, "refunded": 0,
            "timed_out": 0,
        }

    # ------------------------------------------------------------- journal
    def _journal_append(self, record: Dict[str, Any]) -> None:
        """Durably log one transition; disk trouble degrades to no journal."""
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError as error:
            import warnings

            from repro.runner.journal import JournalWarning

            warnings.warn(
                f"broker journal write failed ({error}); continuing without "
                f"crash recovery",
                JournalWarning,
                stacklevel=2,
            )
            try:
                self._journal.close()
            finally:
                self._journal = None

    def close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()

    # ------------------------------------------------------------ recovery
    def recover(self) -> int:
        """Re-submit every job the journal proves existed; returns the count.

        Runs before the listeners start.  Jobs come back in submission
        order with their replayed task states — finished specs re-emit,
        attempts/exclusions stick, in-flight leases are refunded — and
        cancelled jobs are re-cancelled so their queued specs stay dropped.
        Nothing is re-journaled: the journal already holds these records.
        """
        if self._journal is None:
            return 0
        recovered = 0
        for job_id, replay in self._journal.replay_jobs().items():
            if replay.sweep is None:
                continue  # submission record torn or foreign; cannot rebuild
            try:
                sweep = SweepSpec.from_dict(replay.sweep)
            except Exception:  # noqa: BLE001 - foreign/corrupt payload
                continue
            self.submit(
                sweep,
                name=replay.name,
                priority=replay.priority,
                job_id=job_id,
                replay=replay.tasks,
            )
            if replay.cancelled:
                self.cancel(job_id, record=False)
            recovered += 1
        return recovered

    # ------------------------------------------------------------- workers
    def claim_worker(self, requested: str) -> str:
        """Register a worker under a connection-unique name.

        ``requested``, or ``requested#N`` when that name is taken.  Two
        workers arriving with the same auto-generated name (cloned VMs,
        copy-pasted ``--connect`` commands) would otherwise alias in stats
        and — worse — in per-task exclusion sets, letting a crashing
        worker's retry land right back on its same-named twin.  The broker
        echoes the name in its welcome message and the worker keeps it for
        the session (heartbeats, redials), so exclusions stay keyed on it.
        """
        with self._lock:
            worker = requested
            ordinal = 2
            while worker in self._workers:
                worker = f"{requested}#{ordinal}"
                ordinal += 1
            self._workers.add(worker)
            return worker

    def drop_worker(self, worker: str) -> None:
        """Forget a disconnected worker and requeue everything it leased."""
        with self._lock:
            self._workers.discard(worker)
            for job in self._jobs.values():
                for task in job.tasks:
                    if task.state == _LEASED and task.worker == worker:
                        self.stats["disconnects"] += 1
                        self._requeue_or_fail_locked(
                            job, task,
                            f"worker {worker} disconnected mid-spec",
                            exclude=True,
                        )

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    # ------------------------------------------------------------ submission
    def submit(
        self,
        sweep: SweepSpec,
        name: Optional[str] = None,
        priority: int = 1,
        job_id: Optional[str] = None,
        replay: Optional[Dict[str, TaskReplay]] = None,
    ) -> Dict[str, Any]:
        """Register a sweep as a new job; returns its summary.

        Per spec, in order: a journal-replayed terminal state wins, then the
        result-cache short-circuit, then coalescing onto an identical spec
        already in flight for another job, then the job's ready queue.

        ``replay`` (per-spec-key states, possibly empty) marks a submission
        the journal already accounts for: a recovered service job, or the
        one job of a :class:`~repro.runner.distributed.Broker` session, whose
        caller supplies the grid again on every restart.  No
        ``job-submitted`` record is written for it.
        """
        if (
            isinstance(priority, bool)
            or not isinstance(priority, int)
            or priority < 1
        ):
            raise ConfigurationError(
                f"job priority must be a positive integer, got {priority!r}"
            )
        if not sweep.specs:
            # Usually a malformed submission (a grid-style dict where
            # SweepSpec.from_dict expected {"name", "specs"}): rejecting it
            # beats registering a job that silently "completes" with 0 runs.
            raise ConfigurationError(
                f"sweep {sweep.name!r} has no specs; nothing to run"
            )
        with self._lock:
            if self._sealed:
                raise ServiceError("the store is sealed; it takes no more jobs")
            if job_id is None:
                job_id = f"job-{self._counter:04d}-{uuid.uuid4().hex[:6]}"
            if job_id in self._jobs:
                raise ServiceError(f"job id {job_id!r} is already registered")
            self._counter += 1
            job = Job(job_id, name or sweep.name, priority, sweep)
            if replay is None:
                self._journal_append({
                    "kind": "job-submitted", "job": job_id, "name": job.name,
                    "priority": priority, "sweep": sweep.to_dict(),
                })
            self._jobs[job_id] = job
            self._scheduler.add(job_id, priority)
            self.stats["jobs_submitted"] += 1
            for position, spec in enumerate(sweep.specs):
                self._place_task_locked(job, position, spec, replay)
            self._maybe_finish_job_locked(job)
            self._changed.notify_all()
            return job.summary()

    def seal(self) -> None:
        """Take no more jobs: idle workers drain once every job is terminal.

        A :class:`~repro.runner.distributed.Broker` session seals its store
        right after submitting its one job.  The sweep service never seals
        its store, so its workers never drain: the service outlives any one
        job, and pools are expected to run with ``--redial``.
        """
        with self._changed:
            self._sealed = True
            self._changed.notify_all()

    def _place_task_locked(
        self,
        job: Job,
        position: int,
        spec: RunSpec,
        replay: Optional[Dict[str, TaskReplay]],
    ) -> None:
        task = job.tasks[position]
        state = replay.get(task.key) if replay else None
        if state is not None:
            if state.result is not None:
                try:
                    parsed = SimResult.from_dict(state.result)
                except Exception:  # noqa: BLE001 - foreign/corrupt payload
                    state = None  # treat as never-run rather than crash
                else:
                    self.stats["replayed"] += 1
                    self._finish_task_locked(
                        job, task, _DONE, parsed, journal=False
                    )
                    return
            if state is not None and state.failed:
                task.errors = list(state.errors)
                self._finish_task_locked(job, task, _FAILED, journal=False)
                return
            if state is not None:
                task.attempts = state.settled_attempts()
                task.excluded = set(state.excluded)
                task.errors = list(state.errors)
                if state.checkpoint is not None:
                    snapshot = self._parse_checkpoint(spec, state.checkpoint)
                    if snapshot is not None:
                        task.checkpoint = snapshot
                        self.stats["replayed"] += 1
        if task.checkpoint is None and self.checkpoint_dir is not None:
            # Adopt a checkpoint a previous (killed) sweep host left on
            # disk; a journal-replayed one is at least as fresh, so it wins.
            from repro.snapshot import checkpoint_path, try_load_snapshot

            snapshot, _ = try_load_snapshot(
                checkpoint_path(self.checkpoint_dir, spec)
            )
            if snapshot is not None and snapshot.spec == spec:
                task.checkpoint = snapshot
        if self.cache is not None and self.cache.contains(task.key):
            cached = self.cache.get(spec)  # corrupt/stale entries evict here
            if cached is not None:
                job.cached.add(position)
                job.short_circuited += 1
                self.stats["short_circuited"] += 1
                # Not journaled and not re-banked: on restart the cache entry
                # itself re-answers the spec, no record needed.
                self._finish_task_locked(
                    job, task, _DONE, cached, journal=False, bank=False
                )
                return
        chain = self._inflight.get(task.key)
        if chain is not None:
            chain.append((job.job_id, position))
            job.coalesced += 1
            self.stats["coalesced"] += 1
            return  # follower: stays ready but never queued itself
        self._inflight[task.key] = [(job.job_id, position)]
        job.ready.append(position)

    # ---------------------------------------------------------- assignment
    def next_reply(self, worker: str) -> Dict[str, Any]:
        """Answer ``next``, holding an idle worker until something changes.

        A worker with nothing to run is not told to come back later at
        once: its reply waits up to :data:`IDLE_HOLD_SECONDS` for a task to
        be queued again or the store to drain.  The worker that idles at
        the end of a sweep thus gets ``drain`` the moment the last result
        lands, rather than on its next poll.  A hold that times out answers
        ``idle`` with no delay, so the worker asks again straight away and
        is held again.
        """
        reply = self.assign(worker)
        if reply["type"] != "idle":
            return reply
        with self._changed:
            changed = self._changed.wait_for(
                lambda: self._drained_locked()
                or any(job.ready for job in self._jobs.values()),
                timeout=IDLE_HOLD_SECONDS,
            )
        if not changed:
            return {"type": "idle", "delay": 0.0}
        return self.assign(worker)

    def assign(self, worker: str) -> Dict[str, Any]:
        """Next wire message for an idle worker: a task, ``idle`` or ``drain``.

        Jobs are tried in fair-share order; within a job, specs go out in
        queue order, skipping any that exclude this worker.  Only the job
        that actually receives the slot is charged.  ``drain`` comes only
        from a sealed store whose every job is terminal.
        """
        with self._lock:
            now = time.monotonic()
            order = self._scheduler.order(
                job_id for job_id, job in self._jobs.items() if job.ready
            )
            chosen: Optional[Tuple[Job, int]] = None
            for job_id in order:
                job = self._jobs[job_id]
                for position in job.ready:
                    if worker not in job.tasks[position].excluded:
                        chosen = (job, position)
                        break
                if chosen is not None:
                    break
            if chosen is None:
                # Exclusion is best-effort: a spec that excludes every
                # connected worker has nobody left to serve it — retrying
                # (after the spec's retry pause) beats wedging the job.
                for job_id in order:
                    job = self._jobs[job_id]
                    for position in job.ready:
                        if job.tasks[position].fallback_ready(
                            self._workers, now
                        ):
                            chosen = (job, position)
                            break
                    if chosen is not None:
                        break
            if chosen is None:
                if self._drained_locked():
                    return {"type": "drain"}
                return {"type": "idle", "delay": IDLE_DELAY_SECONDS}
            job, position = chosen
            job.ready.remove(position)
            task = job.tasks[position]
            task.state = _LEASED
            task.worker = worker
            task.attempts += 1
            if task.first_assigned is None:
                task.first_assigned = now
            task.deadline = now + self.lease_seconds
            if job.state == JOB_QUEUED:
                job.state = JOB_RUNNING
            self._scheduler.charge(job.job_id)
            self.stats["assigned"] += 1
            self._journal_append({
                "kind": "assigned", "job": job.job_id, "key": task.key,
                "worker": worker,
            })
            message = {
                "type": "task",
                "task": format_task_id(job.job_id, position),
                "payload": task.payload,
            }
            if self.checkpoint_every is not None:
                message["checkpoint_every"] = self.checkpoint_every
            if task.checkpoint is not None:
                from repro.snapshot import snapshot_document

                message["checkpoint"] = snapshot_document(task.checkpoint)
                self.stats["resumed"] += 1
            return message

    # ------------------------------------------------------- worker reports
    def heartbeat(self, job_id: str, position: int, worker: str) -> None:
        with self._lock:
            task = self._task_locked(job_id, position)
            if task is not None and task.state == _LEASED and task.worker == worker:
                task.deadline = time.monotonic() + self.lease_seconds

    def complete(
        self, job_id: str, position: int, worker: str, result: Any
    ) -> None:
        # Parse the payload into a SimResult *before* the task goes terminal:
        # a wrong-shape dict from a version-skewed worker must requeue the
        # spec like any worker error, not crash a reader of events().
        try:
            parsed = SimResult.from_dict(result)
        except Exception as error:  # noqa: BLE001 - arbitrary payloads
            self.error(
                job_id, position, worker,
                f"worker returned an invalid result payload: "
                f"{describe_error(error)}",
            )
            return
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
            if job is None or task is None:
                return
            if task.state in _TERMINAL_TASK_STATES:
                # Late result after reassignment, expiry, or cancellation.
                # The work is real: bank it in the cache and complete any
                # successor chain that re-runs the same spec key.
                self.stats["duplicates"] += 1
                self._bank_result_locked(task, parsed)
                if task.key in self._inflight:
                    head_job_id, head_position = self._inflight[task.key][0]
                    head = self._jobs[head_job_id]
                    self._complete_locked(head, head.tasks[head_position], parsed)
                return
            if not self._complete_locked(job, task, parsed):
                return
        if self.checkpoint_dir is not None:
            from repro.snapshot import checkpoint_path

            try:
                checkpoint_path(
                    self.checkpoint_dir, RunSpec.from_dict(task.payload)
                ).unlink(missing_ok=True)
            except OSError:
                pass

    def error(
        self, job_id: str, position: int, worker: str, reason: str
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
            if job is None or task is None:
                return
            if task.state != _LEASED or task.worker != worker:
                return  # stale report from a lease that already expired
            # Exclude the reporter so the retry prefers a different worker: a
            # host with a broken environment errors instantly and would
            # otherwise re-poll and burn the spec's whole attempt budget.
            self._requeue_or_fail_locked(job, task, reason, exclude=True)

    def checkpoint(
        self, job_id: str, position: int, worker: str, document: Any
    ) -> None:
        """A shipped mid-spec snapshot: kept for the next assignee."""
        self._adopt_snapshot(job_id, position, worker, document, release=False)

    def release(
        self, job_id: str, position: int, worker: str, document: Any
    ) -> None:
        """A clean mid-spec lease return (worker preempted, e.g. SIGTERM).

        Unlike ``error`` this refunds the attempt and excludes nobody: the
        worker did nothing wrong, and its final snapshot means the next
        assignee continues from the slice boundary instead of from zero.
        """
        self._adopt_snapshot(job_id, position, worker, document, release=True)

    def _adopt_snapshot(
        self, job_id: str, position: int, worker: str, document: Any,
        release: bool,
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
        if job is None or task is None:
            return
        # Parse outside the lock: a snapshot document can be large.
        snapshot = self._parse_checkpoint(
            RunSpec.from_dict(task.payload), document
        ) if document else None
        if snapshot is None and not release:
            return
        with self._lock:
            if task.state != _LEASED or task.worker != worker:
                return  # stale shipment from an expired lease
            if snapshot is not None:
                task.checkpoint = snapshot
                self._journal_append({
                    "kind": "checkpointed", "job": job_id, "key": task.key,
                    "snapshot": document,
                })
            if release:
                task.attempts -= 1
                task.state = _READY
                task.worker = None
                job.ready.append(position)
                self._changed.notify_all()
                self.stats["released"] += 1
                self._journal_append({
                    "kind": "released", "job": job_id, "key": task.key,
                })
            else:
                # A checkpoint proves liveness as well as any heartbeat.
                task.deadline = time.monotonic() + self.lease_seconds
                self.stats["checkpoints"] += 1
        if snapshot is not None:
            self._persist_checkpoint(snapshot)

    def expire_leases(self) -> None:
        """Monitor tick: enforce lease expiry and the spec/job deadlines."""
        now = time.monotonic()
        with self._lock:
            for job in self._jobs.values():
                if job.state in TERMINAL_JOB_STATES:
                    continue
                for task in job.tasks:
                    if task.state in _TERMINAL_TASK_STATES:
                        continue
                    if (
                        self.spec_deadline_seconds is not None
                        and task.first_assigned is not None
                        and now - task.first_assigned > self.spec_deadline_seconds
                    ):
                        self._time_out_locked(
                            job, task,
                            f"spec deadline exceeded "
                            f"({self.spec_deadline_seconds}s since first "
                            f"assignment)",
                        )
                        continue
                    if task.state == _LEASED and task.deadline < now:
                        self.stats["expired"] += 1
                        self._requeue_or_fail_locked(
                            job, task,
                            f"lease expired on worker {task.worker} "
                            f"(no heartbeat for {self.lease_seconds}s)",
                            exclude=True,
                        )
                if (
                    self.sweep_deadline_seconds is not None
                    and now - job.submitted > self.sweep_deadline_seconds
                ):
                    for task in job.tasks:
                        if task.state not in _TERMINAL_TASK_STATES:
                            self._time_out_locked(
                                job, task,
                                f"sweep budget exhausted "
                                f"({self.sweep_deadline_seconds}s)",
                            )

    # -------------------------------------------------------- cancellation
    def cancel(self, job_id: str, record: bool = True) -> Optional[Dict[str, Any]]:
        """Cancel a live job; returns its summary, or None when it cannot be.

        Queued specs are dropped on the spot; each *leased* spec is refunded
        exactly once and goes terminal immediately — its straggler worker's
        eventual report is ignored for this job (though a valid result is
        still banked in the cache and completes any successor chain).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_JOB_STATES:
                return None
            job.state = JOB_CANCELLED
            job.finished_at = time.time()
            if record:
                self._journal_append({"kind": "job-cancelled", "job": job_id})
            self._scheduler.remove(job_id)
            self.stats["jobs_cancelled"] += 1
            for task in job.tasks:
                if task.state == _READY:
                    self._unqueue_locked(job, task)
                    self._finish_task_locked(job, task, _CANCELLED)
                elif task.state == _LEASED:
                    job.refunded += 1
                    self.stats["refunded"] += 1
                    self._finish_task_locked(job, task, _CANCELLED)
            return job.summary()

    def abort(self, job_id: str, reason: str) -> None:
        """Terminally fail every live spec of a job (unblocks :meth:`events`).

        Abort failures are *not* journaled: they reflect this session's
        environment (every local worker died), not a durable fact about the
        spec, and a restarted broker should retry those grid points.
        """
        with self._lock:
            job = self._jobs[job_id]
            for task in job.tasks:
                if task.state not in _TERMINAL_TASK_STATES:
                    self._unqueue_locked(job, task)
                    task.errors.append(reason)
                    self._finish_task_locked(job, task, _FAILED, journal=False)

    # ------------------------------------------------------------- queries
    def events(
        self,
        job_id: str,
        poll: Optional[Callable[[], None]] = None,
        poll_interval: float = 0.5,
    ) -> Iterator[Tuple[str, int, Any]]:
        """Yield a job's ``("result"|"failed", position, payload)`` outcomes.

        Outcomes come in the order specs went terminal, each once, until
        none is left (cancelled specs yield nothing).  ``payload`` is the
        parsed :class:`SimResult` for ``"result"`` and the joined failure
        reasons for ``"failed"``.  ``poll`` runs whenever no outcome arrived
        for ``poll_interval`` seconds — the sweep host's liveness hook.
        """
        seen = 0
        while True:
            with self._changed:
                job = self._jobs[job_id]
                self._changed.wait_for(
                    lambda: len(job.finished) > seen or job.outstanding == 0,
                    timeout=poll_interval,
                )
                batch = [
                    ("result", position, job.results[position])
                    if position in job.results
                    else ("failed", position, job.failures[position])
                    for position in job.finished[seen:]
                ]
                settled = job.outstanding == 0
            seen += len(batch)
            yield from batch
            if settled:
                return
            if not batch and poll is not None:
                poll()

    def timed_out_positions(self, job_id: str) -> Set[int]:
        """Positions a spec deadline or the job deadline failed."""
        with self._lock:
            return {
                task.position for task in self._jobs[job_id].tasks
                if task.timed_out
            }

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [job.summary() for job in self._jobs.values()]

    def job_summary(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.summary()

    def job_detail(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.detail()

    def job_results(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.results_payload()

    def queue_depth(self) -> int:
        with self._lock:
            return sum(len(job.ready) for job in self._jobs.values())

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "service": dict(self.stats),
                "jobs": states,
                "queue_depth": sum(
                    len(job.ready) for job in self._jobs.values()
                ),
                "workers": len(self._workers),
            }

    # ------------------------------------------------------ state machine
    def _task_locked(self, job_id: str, position: int) -> Optional[_Task]:
        job = self._jobs.get(job_id)
        if job is None or not 0 <= position < len(job.tasks):
            return None  # corrupt or foreign task id; ignore
        return job.tasks[position]

    def _drained_locked(self) -> bool:
        return self._sealed and all(
            job.state in TERMINAL_JOB_STATES for job in self._jobs.values()
        )

    def _parse_checkpoint(self, spec: RunSpec, document: Any) -> Optional[Any]:
        """Validate a shipped snapshot document against its spec."""
        from repro.errors import SnapshotError
        from repro.snapshot import parse_document

        try:
            snapshot = parse_document(
                document, source=f"spec {spec.key()[:12]} checkpoint"
            )
        except SnapshotError:
            return None  # corrupt in flight; the old checkpoint stays usable
        if snapshot.spec != spec:
            return None
        return snapshot

    def _persist_checkpoint(self, snapshot: Any) -> None:
        if self.checkpoint_dir is None:
            return
        from repro.snapshot import checkpoint_path, save_snapshot

        try:
            save_snapshot(
                snapshot, checkpoint_path(self.checkpoint_dir, snapshot.spec)
            )
        except OSError:
            pass  # disk trouble only costs resume granularity, not the sweep

    def _bank_result_locked(self, task: _Task, parsed: SimResult) -> None:
        if self.cache is not None:
            self.cache.put(RunSpec.from_dict(task.payload), parsed)

    def _complete_locked(self, job: Job, task: _Task, parsed: SimResult) -> bool:
        """Finish a live task with ``parsed``; False if it cannot take it.

        A ready task is one whose lease expired but whose worker finished
        after all; a coalesced follower never leases and is left alone.  A
        straggler's result for a task that already went terminal (cancelled,
        or expired and reassigned) completes the chain head re-running the
        same spec key the same way: first result wins, and the head's own
        eventual report becomes a duplicate.
        """
        if task.state in _TERMINAL_TASK_STATES:
            return False
        if task.state == _READY:
            try:
                job.ready.remove(task.position)
            except ValueError:
                return False
        task.checkpoint = None
        self._finish_task_locked(job, task, _DONE, parsed)
        return True

    def _unqueue_locked(self, job: Job, task: _Task) -> None:
        """Take a ready task off its job's queue ahead of a terminal state."""
        if task.state == _READY:
            try:
                job.ready.remove(task.position)
            except ValueError:
                pass  # coalesced follower: not queued itself

    def _time_out_locked(self, job: Job, task: _Task, reason: str) -> None:
        """Terminally fail a wedged task so its job degrades gracefully.

        Not journaled: deadlines are session policy, not durable facts about
        the spec — a restarted broker (perhaps with a bigger budget) should
        be free to retry it.  A late result from the still-running worker is
        dropped as a duplicate, keeping the events() yield-once contract.
        """
        self._unqueue_locked(job, task)
        task.errors.append(reason)
        task.timed_out = True
        self.stats["timed_out"] += 1
        self._finish_task_locked(job, task, _FAILED, journal=False)

    def _requeue_or_fail_locked(
        self, job: Job, task: _Task, reason: str, exclude: bool
    ) -> None:
        task.errors.append(reason)
        if exclude and task.worker is not None:
            task.excluded.add(task.worker)
            self._journal_append({
                "kind": "excluded", "job": job.job_id, "key": task.key,
                "worker": task.worker, "reason": reason,
            })
        if task.attempts >= self.max_attempts:
            self._finish_task_locked(job, task, _FAILED)
        else:
            if exclude:
                task.pace_retry(time.monotonic(), self._rng)
            task.state = _READY
            task.worker = None
            job.ready.append(task.position)
            self._changed.notify_all()
            self.stats["requeued"] += 1

    def _finish_task_locked(
        self,
        job: Job,
        task: _Task,
        state: str,
        result: Optional[SimResult] = None,
        journal: bool = True,
        bank: bool = True,
    ) -> None:
        """Move a task to a terminal state and resolve its coalescing chain.

        A ``done`` head completes every follower with the same result; a
        ``failed`` or ``cancelled`` head promotes the next follower into its
        own job's queue with that job's fresh attempt budget — one tenant's
        burned retries (or cancellation) never decide another tenant's spec.
        """
        task.state = state
        task.worker = None
        job.outstanding -= 1
        if state == _DONE:
            job.results[task.position] = result
            job.finished.append(task.position)
            if journal:
                self._journal_append({
                    "kind": "completed", "job": job.job_id, "key": task.key,
                    "result": result.to_dict() if result is not None else None,
                })
            self.stats["completed"] += 1
            if bank and result is not None:
                self._bank_result_locked(task, result)
        elif state == _FAILED:
            job.failures[task.position] = "; ".join(task.errors)
            job.finished.append(task.position)
            if journal:
                self._journal_append({
                    "kind": "failed", "job": job.job_id, "key": task.key,
                    "reasons": list(task.errors),
                })
            self.stats["failed"] += 1
        # Cancelled tasks are not journaled per-task: the job-cancelled
        # record re-drops them wholesale on replay.
        self._resolve_chain_locked(job, task, state, result, journal)
        self._maybe_finish_job_locked(job)
        self._changed.notify_all()

    def _resolve_chain_locked(
        self,
        job: Job,
        task: _Task,
        state: str,
        result: Optional[SimResult],
        journal: bool,
    ) -> None:
        key = task.key
        chain = self._inflight.get(key)
        if not chain:
            return
        entry = (job.job_id, task.position)
        if chain[0] == entry:
            rest = chain[1:]
            if state == _DONE:
                # Pop first: follower completions below must not re-enter.
                del self._inflight[key]
                for follower_job_id, follower_position in rest:
                    follower_job = self._jobs.get(follower_job_id)
                    if follower_job is None:
                        continue
                    follower = follower_job.tasks[follower_position]
                    if follower.state in _TERMINAL_TASK_STATES:
                        continue
                    # bank=False: the head's finish already cached this key.
                    self._finish_task_locked(
                        follower_job, follower, _DONE, result, journal,
                        bank=False,
                    )
            elif rest:
                # Promote the next follower: it runs under its own job's
                # attempt budget and exclusion set.
                next_job_id, next_position = rest[0]
                self._inflight[key] = rest
                next_job = self._jobs.get(next_job_id)
                if next_job is not None:
                    next_job.ready.append(next_position)
            else:
                del self._inflight[key]
        elif entry in chain:
            chain.remove(entry)  # a follower went terminal (cancellation)

    def _maybe_finish_job_locked(self, job: Job) -> None:
        if job.outstanding > 0 or job.state in TERMINAL_JOB_STATES:
            return
        job.state = JOB_FAILED if job.failures else JOB_COMPLETED
        job.finished_at = time.time()
        self._scheduler.remove(job.job_id)
        if job.state == JOB_FAILED:
            self.stats["jobs_failed"] += 1
        else:
            self.stats["jobs_completed"] += 1
