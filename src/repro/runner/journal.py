"""Broker write-ahead journal: crash-safe task-state transitions.

The lease state machine (:class:`~repro.service.jobstore.JobStore`) keeps
all lease/attempt/checkpoint state in memory; without a journal, killing the
sweep host forfeits every in-flight attempt and every shipped checkpoint.
:class:`BrokerJournal` closes that hole: every task state transition —
``assigned`` / ``checkpointed`` / ``released`` / ``excluded`` /
``completed`` / ``failed`` — is appended as one JSON line and fsync'd before
the transition is acted on, so a distributed sweep's
:class:`~repro.runner.distributed.Broker` constructed with the same
``journal_dir`` after a SIGKILL replays the log and resumes the *same*
sweep: finished grid points are re-emitted (not re-run), shipped checkpoints
are re-adopted, burned attempts and worker exclusions stick, and the
attempt that was in flight when the broker died is refunded (the broker's
death is not the worker's fault — mirroring the ``release`` semantics).

Records are keyed by the spec's sha256 :meth:`~repro.runner.spec.RunSpec.key`
rather than by queue position, so a restarted sweep whose grid shrank (some
specs now served by the result cache) still maps every surviving record onto
the right task.  The store also tags each record with its ``job`` id;
:meth:`BrokerJournal.replay` ignores the tag, so it reads one-job sweep
journals with or without it.

Durability contract: ``fsync`` per record means the journal never lies about
the past — but the *last* record may be torn (the process died mid-write).
Replay therefore tolerates exactly one invalid record at the tail (dropped
with a :class:`JournalWarning`); an invalid record anywhere else means real
corruption and raises :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, TextIO, Union

from repro.errors import JournalError

#: File name inside ``journal_dir`` (one journal per sweep/run directory).
JOURNAL_NAME = "journal.jsonl"
#: Header record identifying the file; first line of every journal.
JOURNAL_FORMAT = "wisync-broker-journal"
JOURNAL_VERSION = 1

#: Task-transition record kinds (the ``kind`` field of every record).
KIND_ASSIGNED = "assigned"
KIND_CHECKPOINTED = "checkpointed"
KIND_RELEASED = "released"
KIND_EXCLUDED = "excluded"
KIND_COMPLETED = "completed"
KIND_FAILED = "failed"

#: Job-lifecycle record kinds, written only for the multi-tenant sweep
#: service's jobs (a one-job sweep re-supplies its grid on restart); every
#: task-transition record carries a ``job`` field scoping it to one job.
KIND_JOB_SUBMITTED = "job-submitted"
KIND_JOB_CANCELLED = "job-cancelled"

_KNOWN_KINDS = frozenset({
    KIND_ASSIGNED, KIND_CHECKPOINTED, KIND_RELEASED,
    KIND_EXCLUDED, KIND_COMPLETED, KIND_FAILED,
})


class JournalWarning(UserWarning):
    """A journal was readable but imperfect (torn tail, unknown record kind).

    Mirrors :class:`~repro.snapshot.SnapshotWarning`: the condition costs
    only the affected record, never the sweep, so it warns instead of raising.
    """


@dataclass
class TaskReplay:
    """Replayed state of one spec, aggregated from its journal records."""

    attempts: int = 0
    #: True while the last record left the task leased (in flight at death).
    leased: bool = False
    excluded: Set[str] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    #: Latest shipped snapshot *document* (parsed lazily by the adopter).
    checkpoint: Optional[Dict[str, Any]] = None
    #: SimResult dict of a finished task (terminal; wins over everything).
    result: Optional[Dict[str, Any]] = None
    failed: bool = False

    def settled_attempts(self) -> int:
        """Attempt count a restarted broker should charge the task.

        An assignment that was still in flight when the broker died is
        refunded: the lease died with the broker, not through any fault of
        the worker, exactly like a clean ``release``.
        """
        return max(0, self.attempts - (1 if self.leased else 0))


class BrokerJournal:
    """Append-only JSONL log of broker task transitions, fsync'd per record.

    ``append`` opens the file lazily (writing the header first on an empty
    file) and flushes + fsyncs every record, so anything the broker acted on
    is durable before the action's effects can reach a worker.  ``replay``
    reads the whole log back into per-spec-key :class:`TaskReplay` states —
    a pure function of the file, so replaying twice (or replaying, appending,
    and replaying again) is idempotent by construction.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._handle: Optional[TextIO] = None

    # -------------------------------------------------------------- writing
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one transition record (``kind`` + ``key`` + data)."""
        handle = self._open()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def _open(self) -> TextIO:
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._handle.write(json.dumps({
                    "format": JOURNAL_FORMAT, "version": JOURNAL_VERSION,
                }, separators=(",", ":")) + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "BrokerJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- reading
    def exists(self) -> bool:
        return self.path.is_file()

    def replay(self) -> Dict[str, TaskReplay]:
        """Aggregate the journal into per-spec-key :class:`TaskReplay` states.

        Returns an empty mapping when no journal exists yet.  A torn tail
        record warns (:class:`JournalWarning`) and is dropped; an invalid
        record before the tail, or a foreign/unsupported header, raises
        :class:`~repro.errors.JournalError`.
        """
        if not self.exists():
            return {}
        return self._aggregate(self._records())

    def _records(self) -> List[Dict[str, Any]]:
        """Validated body records (header stripped), torn tail dropped."""
        raw_lines = self.path.read_text(encoding="utf-8").split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()  # the file ends in a newline: no torn tail
        records: List[Dict[str, Any]] = []
        for number, line in enumerate(raw_lines, start=1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(  # repro: noqa[ERR001] -- control flow: merges with json.loads failures in the except below, which classifies torn tail vs corruption
                        "journal records are JSON objects"
                    )
            except ValueError as error:
                if number == len(raw_lines):
                    warnings.warn(
                        f"dropping torn tail record (line {number}) of "
                        f"{self.path}: the broker died mid-append",
                        JournalWarning,
                        stacklevel=2,
                    )
                    break
                raise JournalError(
                    f"{self.path} is corrupt at line {number} "
                    f"(not the torn-tail case): {error}"
                )
            records.append(record)
        if not records:
            return []
        header = records[0]
        if header.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"{self.path} is not a {JOURNAL_FORMAT} file "
                f"(header {header!r})"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path} has unsupported journal version "
                f"{header.get('version')!r} (this build reads {JOURNAL_VERSION})"
            )
        return records[1:]

    def _aggregate(
        self, records: List[Dict[str, Any]]
    ) -> Dict[str, TaskReplay]:
        states: Dict[str, TaskReplay] = {}
        for record in records:
            kind = record.get("kind")
            key = record.get("key")
            if kind not in _KNOWN_KINDS or not isinstance(key, str):
                warnings.warn(
                    f"skipping unrecognized journal record {kind!r} in "
                    f"{self.path} (written by a newer build?)",
                    JournalWarning,
                    stacklevel=3,
                )
                continue
            state = states.setdefault(key, TaskReplay())
            if state.result is not None or state.failed:
                continue  # terminal states win; late records are duplicates
            if kind == KIND_ASSIGNED:
                state.attempts += 1
                state.leased = True
            elif kind == KIND_RELEASED:
                # Clean mid-spec lease return: the attempt is refunded.
                state.attempts = max(0, state.attempts - 1)
                state.leased = False
            elif kind == KIND_EXCLUDED:
                worker = record.get("worker")
                if isinstance(worker, str):
                    state.excluded.add(worker)
                reason = record.get("reason")
                if isinstance(reason, str):
                    state.errors.append(reason)
                state.leased = False
            elif kind == KIND_CHECKPOINTED:
                snapshot = record.get("snapshot")
                if isinstance(snapshot, dict):
                    state.checkpoint = snapshot
            elif kind == KIND_COMPLETED:
                result = record.get("result")
                if isinstance(result, dict):
                    state.result = result
                    state.leased = False
                    state.checkpoint = None
            elif kind == KIND_FAILED:
                state.failed = True
                state.leased = False
                reasons = record.get("reasons")
                if isinstance(reasons, list):
                    state.errors = [str(reason) for reason in reasons]
        return states


@dataclass
class JobReplay:
    """Replayed state of one service job: identity + per-spec task states.

    ``sweep`` is the submitted SweepSpec dict, verbatim — the restarted
    service re-submits it with ``tasks`` as the replay states, so finished
    specs re-emit, burned attempts and exclusions stick, and in-flight
    leases are refunded exactly like a restarted distributed sweep.
    """

    name: str = ""
    priority: int = 1
    sweep: Optional[Dict[str, Any]] = None
    cancelled: bool = False
    tasks: Dict[str, TaskReplay] = field(default_factory=dict)


class ServiceJournal(BrokerJournal):
    """Write-ahead journal for the multi-tenant sweep service.

    Same file format, header, and task-transition kinds as
    :class:`BrokerJournal`, with two additions: job-lifecycle records
    (``job-submitted`` carrying the SweepSpec, ``job-cancelled``), and a
    ``job`` field on every task record so :meth:`replay_jobs` can rebuild
    each tenant's task states independently.
    """

    def replay_jobs(self) -> Dict[str, JobReplay]:
        """Aggregate the journal into per-job :class:`JobReplay` states.

        Jobs come back in submission order (dict insertion order), which the
        restarted service relies on to re-register them with the fair-share
        scheduler deterministically.
        """
        if not self.exists():
            return {}
        jobs: Dict[str, JobReplay] = {}
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for record in self._records():
            kind = record.get("kind")
            job_id = record.get("job")
            if not isinstance(job_id, str):
                warnings.warn(
                    f"skipping job-less record {kind!r} in {self.path} "
                    f"(single-sweep broker journal replayed as a service "
                    f"journal?)",
                    JournalWarning,
                    stacklevel=2,
                )
                continue
            if kind == KIND_JOB_SUBMITTED:
                job = jobs.setdefault(job_id, JobReplay())
                job.name = str(record.get("name") or job_id)
                priority = record.get("priority")
                if (
                    isinstance(priority, int)
                    and not isinstance(priority, bool)
                    and priority >= 1
                ):
                    job.priority = priority
                sweep = record.get("sweep")
                if isinstance(sweep, dict):
                    job.sweep = sweep
                continue
            if kind == KIND_JOB_CANCELLED:
                job = jobs.get(job_id)
                if job is not None:
                    job.cancelled = True
                continue
            grouped.setdefault(job_id, []).append(record)
        for job_id, records in grouped.items():
            job = jobs.get(job_id)
            if job is None:
                warnings.warn(
                    f"skipping task records for unknown job {job_id!r} in "
                    f"{self.path} (its job-submitted record is missing)",
                    JournalWarning,
                    stacklevel=2,
                )
                continue
            job.tasks = self._aggregate(records)
        return jobs
