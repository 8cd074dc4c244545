"""Tests for the multi-tenant sweep service (`repro serve`).

Unit layers drive the :class:`JobStore` state machine directly (no sockets);
the socket layer exercises the real TCP plane with raw JSON-lines clients;
the e2e layer runs whole sweeps through HTTP + live workers and holds the
results to the paper contract: bit-identical to :class:`SerialExecutor`,
with the short-circuit/coalescing counters proving overlapping submissions
never reach a worker twice.
"""

import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError, ServiceError
from repro.experiments.fig7_tightloop import fig7_sweep
from repro.machine.results import SimResult
from repro.runner import ResultCache, Runner, RunSpec, SerialExecutor, SweepSpec
from repro.runner.chaos import results_identical
from repro.runner.distributed import _handshake, run_worker
from repro.runner.executor import execute_spec
from repro.runner.journal import ServiceJournal
from repro.runner.service_client import ServiceClient, ServiceExecutor
from repro.runner.supervisor import backoff_delays
from repro.service import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUEUED,
    JobStore,
    ServiceBroker,
    SweepService,
    format_task_id,
    parse_task_id,
)
from repro.service import jobstore
from repro.service.jobstore import EXCLUSION_BACKOFF, IDLE_DELAY_SECONDS


def tightloop_spec(num_cores=8, iterations=2):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores,
    )


def small_sweep(name="unit", cores=(4, 8), iterations=2):
    return SweepSpec(
        name=name,
        specs=tuple(tightloop_spec(c, iterations) for c in cores),
    )


def finish(store, message, worker):
    """Execute an assigned task message like a real worker would."""
    assert message["type"] == "task"
    job_id, position = parse_task_id(message["task"])
    result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
    store.complete(job_id, position, worker, result)
    return job_id, position


class TestTaskId:
    def test_roundtrip(self):
        assert parse_task_id(format_task_id("job-1", 7)) == ("job-1", 7)

    def test_job_ids_containing_slashes_roundtrip(self):
        assert parse_task_id(format_task_id("a/b", 0)) == ("a/b", 0)

    def test_foreign_ids_are_rejected(self):
        assert parse_task_id(3) is None
        assert parse_task_id("no-separator") is None
        assert parse_task_id("job/x") is None
        assert parse_task_id("/3") is None


class TestJobStoreBasics:
    def test_submit_assign_complete_roundtrip(self):
        store = JobStore()
        job = store.submit(small_sweep())
        assert job["state"] == JOB_QUEUED and job["total"] == 2
        store.claim_worker("w")
        for _ in range(2):
            finish(store, store.assign("w"), "w")
        summary = store.job_summary(job["job"])
        assert summary["state"] == JOB_COMPLETED
        assert summary["done"] == 2
        assert store.assign("w")["type"] == "idle"  # never drains

    def test_empty_sweep_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no specs"):
            JobStore().submit(SweepSpec(name="empty"))

    def test_duplicate_job_id_is_rejected(self):
        store = JobStore()
        store.submit(small_sweep(), job_id="fixed")
        with pytest.raises(ServiceError, match="already registered"):
            store.submit(small_sweep(), job_id="fixed")

    def test_bad_priority_is_rejected(self):
        with pytest.raises(ConfigurationError, match="priority"):
            JobStore().submit(small_sweep(), priority=0)
        # bool is an int subclass: True must not pass as priority 1.
        with pytest.raises(ConfigurationError, match="priority"):
            JobStore().submit(small_sweep(), priority=True)

    def test_fully_excluded_task_is_still_assignable(self):
        # Liveness: a task whose excluded set covers every connected worker
        # has nobody left to serve it; best-effort assignment beats wedging
        # the job forever while all workers poll "idle".
        store = JobStore()
        job = store.submit(small_sweep(cores=(4,)))
        store.claim_worker("a")
        store.claim_worker("b")
        store._jobs[job["job"]].tasks[0].excluded = {"a", "b"}
        assert store.assign("a")["type"] == "task"

    def test_partially_excluded_task_waits_for_an_eligible_worker(self):
        store = JobStore()
        job = store.submit(small_sweep(cores=(4,)))
        store.claim_worker("a")
        store.claim_worker("b")
        store._jobs[job["job"]].tasks[0].excluded = {"a"}
        assert store.assign("a")["type"] == "idle"
        assert store.assign("b")["type"] == "task"

    def test_worker_name_collisions_get_ordinals(self):
        store = JobStore()
        assert store.claim_worker("host-1") == "host-1"
        assert store.claim_worker("host-1") == "host-1#2"
        assert store.claim_worker("host-1") == "host-1#3"
        store.drop_worker("host-1#2")
        assert store.claim_worker("host-1") == "host-1#2"

    def test_per_job_exclusion_does_not_leak_across_jobs(self):
        # One tenant's crashing spec excludes the worker for *that* spec
        # only: the other job's identical-core spec still assigns to it.
        store = JobStore(max_attempts=2)
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(8,)))
        store.claim_worker("w")
        store.claim_worker("v")
        message = store.assign("w")
        job_id, position = parse_task_id(message["task"])
        assert job_id == a["job"]
        store.error(job_id, position, "w", "boom")
        # Job a's spec now excludes w; job b's spec must not.
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]


@pytest.fixture
def clock(monkeypatch):
    """A settable stand-in for ``time.monotonic``."""
    now = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    return now


def pauses(seed):
    """The retry pauses a store seeded with ``seed`` draws, in order."""
    return backoff_delays(*EXCLUSION_BACKOFF, rng=random.Random(seed))


class TestExclusionFallbackPacing:
    """The best-effort exclusion fallback waits out a backoff pause.

    Driven socket-free on the store with a fake clock and a seeded rng, so
    every pause is known exactly.
    """

    def _store(self, workers, sealed=False):
        store = JobStore(max_attempts=3, rng=random.Random(7))
        job = store.submit(small_sweep(cores=(4,)))
        if sealed:
            store.seal()
        for worker in workers:
            store.claim_worker(worker)
        return store, job["job"], store._jobs[job["job"]].tasks[0]

    def test_excluded_worker_idles_until_the_pause_has_passed(self, clock):
        store, job_id, task = self._store(["sick"])
        message = store.assign("sick")
        position = parse_task_id(message["task"])[1]
        store.error(job_id, position, "sick", "boom")
        retry_at = clock[0] + next(pauses(7))
        assert task.retry_at == retry_at
        assert store.assign("sick")["type"] == "idle"
        clock[0] = retry_at - 1e-6
        assert store.assign("sick")["type"] == "idle"
        clock[0] = retry_at
        message = store.assign("sick")
        assert parse_task_id(message["task"]) == (job_id, position)

    def test_fresh_worker_gets_the_requeued_task_at_once(self, clock):
        store, job_id, task = self._store(["sick"])
        store.assign("sick")
        store.error(job_id, 0, "sick", "boom")
        fresh = store.claim_worker("fresh")
        assert store.assign("sick")["type"] == "idle"
        assert parse_task_id(store.assign(fresh)["task"]) == (job_id, 0)
        assert task.attempts == 2

    def test_single_worker_fleet_still_reaches_its_retries(self, clock):
        store, job_id, task = self._store(["only"], sealed=True)
        expected = pauses(7)
        for attempt in range(1, 4):
            assert store.assign("only")["type"] == "task"
            assert task.attempts == attempt
            store.error(job_id, 0, "only", f"boom {attempt}")
            if attempt < 3:
                # Each pause follows the backoff schedule, so it grows.
                assert task.retry_at == clock[0] + next(expected)
                assert store.assign("only")["type"] == "idle"
                clock[0] = task.retry_at
        assert store.job_summary(job_id)["state"] == JOB_FAILED
        assert store.stats["failed"] == 1 and store.stats["requeued"] == 2
        assert store.assign("only")["type"] == "drain"  # sealed and settled

    def test_expired_lease_requeue_is_paced_too(self, clock):
        store, job_id, task = self._store(["only"])
        store.assign("only")
        clock[0] = task.deadline + 1.0
        store.expire_leases()
        assert store.stats["expired"] == 1
        assert store.assign("only")["type"] == "idle"
        clock[0] = task.retry_at
        assert store.assign("only")["type"] == "task"


class _SignallingCondition(threading.Condition):
    """A condition that reports when a thread starts waiting on it."""

    def __init__(self, lock):
        super().__init__(lock)
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        self.waiting.set()
        return super().wait(timeout)


class TestIdleHold:
    """An idle worker's ``next`` is held until work or the drain arrives.

    Socket-free: ``next_reply`` runs on a helper thread.  The hold is
    stretched far past the test's run time, so a reply at all proves a state
    change woke the held worker, not the timeout.
    """

    @pytest.fixture(autouse=True)
    def long_hold(self, monkeypatch):
        monkeypatch.setattr(jobstore, "IDLE_HOLD_SECONDS", 60.0)

    def _store(self, max_attempts=3):
        store = JobStore(max_attempts=max_attempts, rng=random.Random(7))
        job = store.submit(small_sweep(cores=(4,)))
        store.seal()
        store.claim_worker("busy")
        store.claim_worker("idle")
        store._changed = _SignallingCondition(store._lock)
        assert store.assign("busy")["type"] == "task"
        return store, job["job"]

    def _hold(self, store, worker):
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(store.next_reply(worker))
        )
        thread.start()
        assert store._changed.waiting.wait(10.0)
        return thread, replies

    def test_last_task_going_terminal_drains_the_held_worker(self):
        store, job_id = self._store(max_attempts=1)
        thread, replies = self._hold(store, "idle")
        store.error(job_id, 0, "busy", "boom")  # last attempt: terminal
        thread.join(10.0)
        assert replies == [{"type": "drain"}]

    def test_requeued_task_goes_to_the_held_worker(self):
        store, job_id = self._store()
        thread, replies = self._hold(store, "idle")
        store.error(job_id, 0, "busy", "boom")  # requeued, "busy" excluded
        thread.join(10.0)
        assert [reply["type"] for reply in replies] == ["task"]
        assert store._jobs[job_id].tasks[0].worker == "idle"

    def test_a_hold_that_runs_out_answers_idle_without_delay(self, monkeypatch):
        monkeypatch.setattr(jobstore, "IDLE_HOLD_SECONDS", 0.0)
        store, _ = self._store()
        assert store.next_reply("idle") == {"type": "idle", "delay": 0.0}

    def test_a_queue_of_excluded_tasks_is_not_held(self, clock):
        # The retry pause is the fallback's own wait: the excluded worker
        # is answered at once and told to pause like any idle poll.
        store, job_id = self._store()
        store.drop_worker("idle")
        store.error(job_id, 0, "busy", "boom")
        assert store.next_reply("busy") == {
            "type": "idle", "delay": IDLE_DELAY_SECONDS,
        }

    def test_submission_wakes_a_held_worker_of_an_unsealed_store(self):
        # The service never seals its store: a worker held idle there is
        # woken by the next submission, not by a drain.
        store = JobStore()
        store.claim_worker("w")
        store._changed = _SignallingCondition(store._lock)
        thread, replies = self._hold(store, "w")
        store.submit(small_sweep(cores=(4,)))
        thread.join(10.0)
        assert [reply["type"] for reply in replies] == ["task"]


class TestOneJobSession:
    """What a distributed sweep's one-job store adds: sealing, deadlines,
    abort and the completion-order outcome stream (socket-free)."""

    def _sealed(self, tmp_path=None, **kwargs):
        journal = (
            ServiceJournal(tmp_path / "journal") if tmp_path is not None else None
        )
        store = JobStore(journal=journal, **kwargs)
        job = store.submit(small_sweep(cores=(4, 8)), replay={})["job"]
        store.seal()
        store.claim_worker("w")
        return store, job

    def test_sealed_store_takes_no_more_jobs(self):
        store, _ = self._sealed()
        with pytest.raises(ServiceError, match="sealed"):
            store.submit(small_sweep(cores=(16,)))

    def test_events_arrive_in_completion_order(self):
        store, job = self._sealed()
        first, second = store.assign("w"), store.assign("w")
        finish(store, second, "w")
        store.error(job, parse_task_id(first["task"])[1], "w", "boom")
        store.claim_worker("v")  # "w" is now excluded from the retry
        finish(store, store.assign("v"), "v")
        events = list(store.events(job))
        assert [(kind, position) for kind, position, _ in events] == [
            ("result", 1), ("result", 0),
        ]
        assert store.assign("w") == {"type": "drain"}

    def test_spec_deadline_times_out_only_the_wedged_spec(self, clock):
        store, job = self._sealed(spec_deadline_seconds=5.0)
        store.assign("w")
        clock[0] += 6.0
        store.expire_leases()
        assert store.timed_out_positions(job) == {0}
        assert store.stats["timed_out"] == 1
        finish(store, store.assign("w"), "w")
        kinds = {position: kind for kind, position, _ in store.events(job)}
        assert kinds == {0: "failed", 1: "result"}

    def test_job_deadline_fails_every_live_spec(self, clock):
        store, job = self._sealed(sweep_deadline_seconds=5.0)
        store.assign("w")
        clock[0] += 6.0
        store.expire_leases()
        assert store.timed_out_positions(job) == {0, 1}
        failed = [payload for kind, _, payload in store.events(job)]
        assert all("sweep budget exhausted" in reason for reason in failed)
        assert store.assign("w") == {"type": "drain"}

    def test_abort_and_deadlines_are_not_journaled(self, tmp_path, clock):
        store, job = self._sealed(tmp_path, spec_deadline_seconds=5.0)
        store.assign("w")
        clock[0] += 6.0
        store.expire_leases()  # times out position 0
        store.abort(job, "every local worker exited")
        store.close_journal()
        reasons = {position: payload for _, position, payload in store.events(job)}
        assert "every local worker exited" in reasons[1]
        records = (tmp_path / "journal" / "journal.jsonl").read_text()
        assert '"kind":"failed"' not in records
        assert '"kind":"job-submitted"' not in records  # replay={} session
        assert '"job":"' + job + '"' in records  # the assignment record


    def test_concurrent_workers_and_reader_see_each_outcome_once(self):
        # More worker threads than cores race on one sealed store while the
        # sweep host reads events(): every spec is delivered exactly once
        # and every worker is drained.
        result = execute_spec(tightloop_spec(4)).to_dict()
        specs = tuple(tightloop_spec(4, iterations) for iterations in range(2, 42))
        store = JobStore()
        job = store.submit(SweepSpec(name="stress", specs=specs), replay={})["job"]
        store.seal()
        drained = []

        def work(name):
            worker = store.claim_worker(name)
            while True:
                reply = store.next_reply(worker)
                if reply["type"] == "drain":
                    drained.append(worker)
                    return
                if reply["type"] == "task":
                    position = parse_task_id(reply["task"])[1]
                    store.complete(job, position, worker, result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(f"w{index}",))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            positions = [
                position for _, position, _ in store.events(job, poll_interval=0.05)
            ]
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(positions) == list(range(len(specs)))
        assert len(drained) == 8


class TestFairShare:
    def test_priority_weights_the_interleaving(self):
        store = JobStore()
        # Distinct iteration counts keep the two grids from coalescing.
        lo = store.submit(
            small_sweep("lo", cores=(4, 8, 16), iterations=2), priority=1
        )
        hi = store.submit(
            small_sweep("hi", cores=(4, 8, 16), iterations=3), priority=2
        )
        store.claim_worker("w")
        order = []
        for _ in range(6):
            message = store.assign("w")
            job_id, position = parse_task_id(message["task"])
            order.append("hi" if job_id == hi["job"] else "lo")
            store.complete(
                job_id, position, "w",
                execute_spec(RunSpec.from_dict(message["payload"])).to_dict(),
            )
        # Priority 2 gets two slots for every one of priority 1 while both
        # queues are non-empty (hi drains after its 3 specs), and the
        # schedule is deterministic.
        assert order == ["lo", "hi", "hi", "lo", "hi", "lo"]

    def test_cross_job_coalescing_runs_the_spec_once(self):
        store = JobStore()
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))  # identical spec
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")
        assert store.assign("w")["type"] == "idle"  # nothing left to run
        for job in (a, b):
            summary = store.job_summary(job["job"])
            assert summary["state"] == JOB_COMPLETED
        assert store.job_summary(b["job"])["coalesced"] == 1
        assert store.stats["assigned"] == 1
        results_a = store.job_results(a["job"])["runs"]
        results_b = store.job_results(b["job"])["runs"]
        assert results_a[0]["result"] == results_b[0]["result"]

    def test_failed_head_promotes_follower_with_fresh_budget(self):
        store = JobStore(max_attempts=1)
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        job_id, position = parse_task_id(message["task"])
        assert job_id == a["job"]
        store.error(job_id, position, "w", "boom")
        assert store.job_summary(a["job"])["state"] == JOB_FAILED
        # The follower re-runs under its own (fresh) attempt budget.
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]
        finish(store, message, "w")
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED


class TestCacheShortCircuit:
    def test_cached_spec_never_reaches_a_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tightloop_spec(4)
        cache.put(spec, execute_spec(spec))
        store = JobStore(cache=cache)
        job = store.submit(small_sweep(cores=(4, 8)))
        summary = store.job_summary(job["job"])
        assert summary["short_circuited"] == 1
        assert summary["done"] == 1 and summary["pending"] == 1
        store.claim_worker("w")
        message = store.assign("w")
        assert RunSpec.from_dict(message["payload"]).num_cores == 8
        finish(store, message, "w")
        assert store.job_summary(job["job"])["state"] == JOB_COMPLETED
        assert store.stats["assigned"] == 1
        # The results payload marks which runs were answered from cache.
        runs = store.job_results(job["job"])["runs"]
        assert [run["cached"] for run in runs] == [True, False]

    def test_completed_results_are_banked_for_the_next_job(self, tmp_path):
        store = JobStore(cache=ResultCache(tmp_path / "cache"))
        store.submit(small_sweep("first", cores=(4,)))
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")
        second = store.submit(small_sweep("second", cores=(4,)))
        assert store.job_summary(second["job"])["state"] == JOB_COMPLETED
        assert store.job_summary(second["job"])["short_circuited"] == 1
        assert store.stats["assigned"] == 1


class TestCancellation:
    def test_cancel_drops_queued_and_refunds_leased_once(self):
        store = JobStore()
        job = store.submit(small_sweep(cores=(4, 8)))
        store.claim_worker("w")
        message = store.assign("w")
        cancelled = store.cancel(job["job"])
        assert cancelled["state"] == JOB_CANCELLED
        assert cancelled["refunded"] == 1  # the leased spec, exactly once
        assert cancelled["cancelled"] == 2
        assert store.queue_depth() == 0
        # Cancelling again reports "nothing to do".
        assert store.cancel(job["job"]) is None
        # The straggler's eventual report lands on a terminal task:
        # counted as a duplicate, not a crash, and not a state change.
        job_id, position = parse_task_id(message["task"])
        result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
        store.complete(job_id, position, "w", result)
        assert store.stats["duplicates"] == 1
        assert store.job_summary(job["job"])["state"] == JOB_CANCELLED

    def test_cancelled_heads_follower_is_promoted(self):
        store = JobStore()
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == a["job"]
        store.cancel(a["job"])
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]
        finish(store, message, "w")
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED

    def test_straggler_result_completes_the_promoted_successor(self, tmp_path):
        # Job a's lease is cancelled while job b re-runs the same key: the
        # straggler's valid result is banked and completes b immediately.
        store = JobStore(cache=ResultCache(tmp_path / "cache"))
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        store.cancel(a["job"])
        job_id, position = parse_task_id(message["task"])
        result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
        store.complete(job_id, position, "w", result)
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED
        assert store.stats["assigned"] == 1


class TestRecovery:
    def test_restart_replays_jobs_and_refunds_inflight(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal")
        store = JobStore(journal=journal)
        job = store.submit(small_sweep(cores=(4, 8)), name="night", priority=3)
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")   # one spec done
        store.assign("w")                       # one spec in flight at death
        # SIGKILL: no graceful close; a fresh store replays the same dir.
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        assert restarted.recover() == 1
        summary = restarted.job_summary(job["job"])
        assert summary["name"] == "night"
        assert summary["priority"] == 3
        assert summary["done"] == 1      # finished spec re-emitted, not re-run
        assert summary["pending"] == 1   # in-flight lease refunded to ready
        assert restarted.stats["replayed"] == 1
        task = restarted._jobs[job["job"]].tasks[1]
        assert task.attempts == 0        # broker death is not worker fault
        restarted.claim_worker("w")
        finish(restarted, restarted.assign("w"), "w")
        assert restarted.job_summary(job["job"])["state"] == JOB_COMPLETED

    def test_cancelled_job_stays_cancelled_after_restart(self, tmp_path):
        store = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        job = store.submit(small_sweep())
        store.cancel(job["job"])
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        assert restarted.recover() == 1
        assert restarted.job_summary(job["job"])["state"] == JOB_CANCELLED
        assert restarted.queue_depth() == 0

    def test_boolean_priority_record_replays_as_the_default(self, tmp_path):
        # bool is an int subclass: a journaled ``true`` is not priority 1.
        journal = ServiceJournal(tmp_path / "journal")
        journal.append({
            "kind": "job-submitted", "job": "j", "name": "j",
            "priority": True, "sweep": small_sweep().to_dict(),
        })
        journal.close()
        replayed = ServiceJournal(tmp_path / "journal").replay_jobs()["j"]
        assert replayed.priority == 1 and replayed.priority is not True

    def test_recovery_does_not_rejournal(self, tmp_path):
        store = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        store.submit(small_sweep())
        path = tmp_path / "journal" / "journal.jsonl"
        before = path.read_text()
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        restarted.recover()
        assert path.read_text() == before


class TestServiceBrokerSocket:
    def _hello(self, port, payload):
        sock = socket.create_connection(("127.0.0.1", port))
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall((json.dumps(payload) + "\n").encode())
        reply = json.loads(reader.readline())
        return sock, reader, reply

    def test_bad_token_is_rejected(self):
        with SweepService(token="sekrit") as svc:
            sock, _, reply = self._hello(
                svc.worker_address[1],
                {"type": "hello", "worker": "spy", "token": "wrong"},
            )
            assert reply["type"] == "reject"
            sock.close()

    def test_welcome_assigns_unique_worker_names(self):
        with SweepService() as svc:
            port = svc.worker_address[1]
            sock1, _, reply1 = self._hello(port, {"type": "hello", "worker": "twin"})
            sock2, _, reply2 = self._hello(port, {"type": "hello", "worker": "twin"})
            assert reply1["worker"] == "twin"
            assert reply2["worker"] == "twin#2"
            sock1.close()
            sock2.close()

    def test_close_stops_every_plane_thread(self):
        broker = ServiceBroker(JobStore()).start()
        sock, *_ = _handshake("127.0.0.1", broker.port, "probe")
        try:
            broker.close()
            threads = broker.threads
            assert len(threads) == 3  # acceptor, lease monitor, one handler
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sock.close()

    def test_both_ends_of_a_worker_connection_disable_nagle(self):
        with SweepService() as svc:
            sock, *_ = _handshake("127.0.0.1", svc.worker_address[1], "probe")
            (accepted,) = svc.broker.connections
            for end in (sock, accepted):
                assert end.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            sock.close()

    def test_idle_reply_never_drains(self):
        with SweepService() as svc:
            sock, reader, _ = self._hello(
                svc.worker_address[1], {"type": "hello", "worker": "w"}
            )
            sock.sendall(b'{"type": "next"}\n')
            assert json.loads(reader.readline())["type"] == "idle"
            sock.close()


def _poll_terminal(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        summary = client.job(job_id)
        if summary["state"] in ("completed", "failed", "cancelled"):
            return summary
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {timeout}s")


class TestHttpApi:
    def test_statuses_and_streaming(self, tmp_path):
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            client = ServiceClient(svc.http_url)
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ServiceError, match="404"):
                client.job("nope")
            with pytest.raises(ServiceError, match="404"):
                client.cancel("nope")
            with pytest.raises(ServiceError, match="400"):
                client.submit(SweepSpec(name="empty"))
            job = client.submit(small_sweep(), name="probe", priority=2)
            assert job["name"] == "probe"
            # Results on a non-terminal job: 409 unless ?partial=1.
            with pytest.raises(ServiceError, match="409"):
                client.results(job["job"])
            partial = client.results(job["job"], partial=True)
            assert partial["runs"] == []
            assert [j["job"] for j in client.jobs()] == [job["job"]]
            stats = client.stats()
            assert stats["queue_depth"] == 2
            assert stats["service"]["jobs_submitted"] == 1
            cancelled = client.cancel(job["job"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError, match="409"):
                client.cancel(job["job"])

    def test_http_auth_is_enforced(self):
        with SweepService(token="sekrit") as svc:
            open_client = ServiceClient(svc.http_url)
            assert open_client.healthz() == {"status": "ok"}  # always open
            with pytest.raises(ServiceError, match="401"):
                open_client.jobs()
            assert ServiceClient(svc.http_url, token="sekrit").jobs() == []

    def test_negative_content_length_is_rejected_without_reading(self):
        # rfile.read(-1) would block until the client hangs up: the reply
        # must come back while the connection is still open.
        with SweepService() as svc:
            host, port = svc.http.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                status = sock.makefile("rb").readline()
            assert status.split()[1] == b"400"
            assert svc.store.list_jobs() == []

    def test_boolean_priority_in_a_post_body_is_rejected(self):
        with SweepService() as svc:
            client = ServiceClient(svc.http_url)
            with pytest.raises(ServiceError, match="400"):
                client.submit(small_sweep(), priority=True)
            assert client.jobs() == []

    def test_client_rejects_non_http_url(self):
        with pytest.raises(ConfigurationError, match="http"):
            ServiceClient("sweephost:7788")


class TestEndToEnd:
    def test_two_clients_overlapping_grids_bit_identical(self, tmp_path):
        # The acceptance scenario: one daemon, two concurrent HTTP clients
        # with overlapping fig7-quick grids, results bit-identical to
        # SerialExecutor, and the overlap never reaches a worker twice.
        sweep_a = fig7_sweep(core_counts=[8, 16], iterations=2)
        sweep_b = fig7_sweep(core_counts=[16, 32], iterations=2)
        overlap = {s.key() for s in sweep_a} & {s.key() for s in sweep_b}
        unique = {s.key() for s in sweep_a} | {s.key() for s in sweep_b}
        assert overlap  # the scenario requires overlapping grids
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            host, port = svc.worker_address
            workers = [
                threading.Thread(
                    target=run_worker, args=(host, port),
                    kwargs={"max_tasks": len(unique)}, daemon=True,
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            outcome = {}

            def submit(name, sweep):
                executor = ServiceExecutor(
                    svc.http_url, name=name, poll_seconds=0.05
                )
                outcome[name] = executor.run(list(sweep.specs))

            threads = [
                threading.Thread(target=submit, args=("a", sweep_a)),
                threading.Thread(target=submit, args=("b", sweep_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive()
            stats = svc.store.stats_snapshot()["service"]
        serial = SerialExecutor()
        for name, sweep in (("a", sweep_a), ("b", sweep_b)):
            expected = serial.run(list(sweep.specs))
            assert len(outcome[name]) == len(expected)
            assert all(
                results_identical(mine, theirs)
                for mine, theirs in zip(outcome[name], expected)
            )
        # Every unique spec ran exactly once; every overlapping spec was
        # answered broker-side (coalesced mid-flight or cache-hit).
        assert stats["assigned"] == len(unique)
        assert stats["coalesced"] + stats["short_circuited"] == len(overlap)

    def test_resubmission_is_all_short_circuit(self, tmp_path):
        sweep = small_sweep(cores=(4, 8))
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            client = ServiceClient(svc.http_url)
            first = client.submit(sweep)
            _poll_terminal(client, first["job"])
            second = client.submit(sweep)
            assert second["state"] == "completed"  # settled at submit time
            assert second["short_circuited"] == 2
            first_runs = client.results(first["job"])["runs"]
            second_runs = client.results(second["job"])["runs"]
            assert [r["result"] for r in first_runs] == [
                r["result"] for r in second_runs
            ]
            assert svc.store.stats["assigned"] == 2

    def test_daemon_restart_resumes_queued_job(self, tmp_path):
        # Submit with no workers connected, tear the daemon down, restart on
        # the same journal/cache directories: the job must come back and
        # then run to a result bit-identical to serial.
        sweep = small_sweep(cores=(4, 8))
        dirs = dict(
            journal_dir=str(tmp_path / "journal"),
            cache_dir=str(tmp_path / "cache"),
        )
        with SweepService(**dirs) as svc:
            job = ServiceClient(svc.http_url).submit(sweep, name="survivor")
        with SweepService(**dirs) as svc:
            assert svc.recovered_jobs == 1
            client = ServiceClient(svc.http_url)
            assert client.job(job["job"])["name"] == "survivor"
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            summary = _poll_terminal(client, job["job"])
            assert summary["state"] == "completed"
            runs = client.results(job["job"])["runs"]
        expected = SerialExecutor().run(list(sweep.specs))
        assert all(
            results_identical(SimResult.from_dict(run["result"]), theirs)
            for run, theirs in zip(runs, expected)
        )

    def test_worker_token_end_to_end(self):
        with SweepService(token="sekrit") as svc:
            host, port = svc.worker_address
            with pytest.raises(ExecutionError, match="rejected"):
                run_worker(host, port, token="wrong")
            client = ServiceClient(svc.http_url, token="sekrit")
            job = client.submit(small_sweep(cores=(4,)))
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"token": "sekrit", "max_tasks": 1}, daemon=True,
            ).start()
            assert _poll_terminal(client, job["job"])["state"] == "completed"


class TestServiceExecutorContract:
    def test_runner_cache_and_manifest_path_composes(self, tmp_path):
        # `repro run --submit` rides the normal Runner path: the local cache
        # filters the grid before submission, so a second run submits nothing.
        sweep = small_sweep(cores=(4, 8))
        with SweepService() as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            cache = ResultCache(tmp_path / "cache")
            runner = Runner(
                executor=ServiceExecutor(svc.http_url, poll_seconds=0.05),
                cache=cache,
            )
            first = runner.run(sweep)
            jobs_seen = len(svc.store.list_jobs())
            second = runner.run(sweep)
            assert len(svc.store.list_jobs()) == jobs_seen  # all local hits
        expected = SerialExecutor().run(list(sweep.specs))
        for sweep_result in (first, second):
            assert all(
                results_identical(mine, theirs)
                for (_, mine), theirs in zip(sweep_result, expected)
            )

    def test_failures_surface_after_successes(self):
        specs = [
            tightloop_spec(4),
            RunSpec(
                workload="fault_probe", params={"fail_times": 99},
                config="WiSync", num_cores=4,
            ),
        ]
        with SweepService() as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port), daemon=True,
            ).start()
            executor = ServiceExecutor(svc.http_url, poll_seconds=0.05)
            yielded = []
            with pytest.raises(ExecutionError, match="failed after retries"):
                for position, result in executor.run_iter(specs):
                    yielded.append(position)
            assert yielded == [0]  # the good spec still came through

    def test_abandoned_generator_cancels_the_job(self, tmp_path):
        # A client that walks away (Ctrl-C mid-iteration) must not leave its
        # job competing for the shared pool: the generator's cleanup path
        # withdraws it.  Pre-bank one spec in the service cache so the first
        # ``next()`` yields immediately; the second spec has no workers and
        # would hang forever if the close didn't cancel.
        cache = ResultCache(tmp_path / "cache")
        done_spec = tightloop_spec(4)
        cache.put(done_spec, execute_spec(done_spec))
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            executor = ServiceExecutor(svc.http_url, poll_seconds=0.05)
            iterator = executor.run_iter([done_spec, tightloop_spec(8)])
            position, result = next(iterator)
            assert position == 0
            iterator.close()  # walk away with one spec still pending
            jobs = ServiceClient(svc.http_url).jobs()
            assert len(jobs) == 1
            assert jobs[0]["state"] == "cancelled"

    def test_executor_rejects_bad_poll(self):
        with pytest.raises(ConfigurationError, match="poll"):
            ServiceExecutor("http://localhost:1", poll_seconds=0)


class TestCli:
    def test_run_submit_is_exclusive_with_local_executors(self, tmp_path):
        from repro.runner.cli import main

        assert main([
            "run", "fig7", "--quick", "--submit", "http://localhost:1",
            "--parallel", "2", "--no-manifest",
        ]) == 2  # ReproError -> exit 2

    def test_jobs_verbs_against_live_service(self, tmp_path, capsys):
        from repro.runner.cli import main

        with SweepService() as svc:
            job = ServiceClient(svc.http_url).submit(
                small_sweep(), name="cli-probe"
            )
            assert main(["jobs", "list", svc.http_url]) == 0
            listed = capsys.readouterr().out
            assert job["job"] in listed and "cli-probe" in listed
            assert main(["jobs", "show", svc.http_url, job["job"]]) == 0
            shown = capsys.readouterr().out
            assert "tightloop" in shown
            assert main(["jobs", "cancel", svc.http_url, job["job"]]) == 0
            assert "cancelled" in capsys.readouterr().out
            assert main(["jobs", "show", svc.http_url, "missing"]) == 2
            assert "404" in capsys.readouterr().err
