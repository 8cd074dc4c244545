"""Broker write-ahead journal tests: file format, replay, restart recovery.

Three layers:

* file level — :class:`BrokerJournal` append/replay semantics: header,
  idempotence, torn-tail tolerance, corruption detection, record aggregation
  into :class:`TaskReplay` states;
* property level — hypothesis sweeps over random record sequences and random
  truncation points (replay is a pure function of the file; a torn tail
  costs exactly the last record);
* broker level — a journaled :class:`Broker` killed mid-sweep and rebuilt
  from the same journal resumes the *same* sweep: completed specs are
  re-emitted without re-running, and the recovered results are bit-identical
  to a serial run (the acceptance bar, also swept by hypothesis over random
  grids and kill points via the embedded chaos drill).
"""

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.runner import (
    Broker,
    BrokerJournal,
    JournalWarning,
    RunSpec,
    SerialExecutor,
    ServiceJournal,
    TaskReplay,
)
from repro.runner.chaos import (
    ChaosSchedule,
    KillEvent,
    results_identical,
    run_embedded_drill,
    verify_against_serial,
)
from repro.runner.distributed import run_worker
from repro.runner.executor import execute_spec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tightloop_spec(num_cores=8, iterations=2):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores,
    )


class TestJournalFile:
    def test_missing_journal_replays_empty(self, tmp_path):
        journal = BrokerJournal(tmp_path)
        assert not journal.exists()
        assert journal.replay() == {}

    def test_first_append_writes_the_header(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0]
        assert "wisync-broker-journal" in header

    def test_assigned_then_completed_round_trips(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
            journal.append(
                {"kind": "completed", "key": "k", "result": {"total_cycles": 7}}
            )
        states = BrokerJournal(tmp_path).replay()
        assert set(states) == {"k"}
        state = states["k"]
        assert state.result == {"total_cycles": 7}
        assert not state.leased
        assert not state.failed

    def test_in_flight_attempt_is_refunded(self, tmp_path):
        # The broker died while the task was leased: its death is not the
        # worker's fault, so the attempt must not be charged on restart.
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.attempts == 1
        assert state.leased
        assert state.settled_attempts() == 0

    def test_released_lease_is_refunded_too(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
            journal.append({"kind": "released", "key": "k"})
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.attempts == 0
        assert not state.leased
        assert state.settled_attempts() == 0

    def test_exclusion_burns_the_attempt_and_sticks(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w1"})
            journal.append({
                "kind": "excluded", "key": "k",
                "worker": "w1", "reason": "worker crashed",
            })
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.excluded == {"w1"}
        assert state.errors == ["worker crashed"]
        assert state.attempts == 1
        assert not state.leased
        assert state.settled_attempts() == 1

    def test_checkpoint_adopted_then_cleared_by_completion(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
            journal.append({
                "kind": "checkpointed", "key": "k",
                "snapshot": {"events_processed": 500},
            })
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.checkpoint == {"events_processed": 500}
        with BrokerJournal(tmp_path) as journal:
            journal.append(
                {"kind": "completed", "key": "k", "result": {"total_cycles": 1}}
            )
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.checkpoint is None  # a finished spec needs no resume point

    def test_terminal_state_wins_over_late_records(self, tmp_path):
        # A completed record followed by stale transitions (late heartbeat
        # bookkeeping, a duplicate report) must not reopen the task.
        with BrokerJournal(tmp_path) as journal:
            journal.append(
                {"kind": "completed", "key": "k", "result": {"total_cycles": 3}}
            )
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
            journal.append({"kind": "failed", "key": "k", "reasons": ["late"]})
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.result == {"total_cycles": 3}
        assert not state.failed
        assert state.attempts == 0

    def test_failed_record_restores_the_reasons(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append(
                {"kind": "failed", "key": "k", "reasons": ["a", "b"]}
            )
        state = BrokerJournal(tmp_path).replay()["k"]
        assert state.failed
        assert state.errors == ["a", "b"]

    def test_torn_tail_warns_and_drops_only_the_tail(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
            journal.append(
                {"kind": "completed", "key": "k", "result": {"total_cycles": 1}}
            )
        with open(BrokerJournal(tmp_path).path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "assi')  # killed mid-append: no newline
        with pytest.warns(JournalWarning, match="torn tail"):
            states = BrokerJournal(tmp_path).replay()
        assert states["k"].result == {"total_cycles": 1}

    def test_mid_file_corruption_raises(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
        path = BrokerJournal(tmp_path).path
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "not json\n" + lines[1])
        with pytest.raises(JournalError, match="corrupt at line 2"):
            BrokerJournal(tmp_path).replay()

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": "someone-elses-log", "version": 1}\n')
        with pytest.raises(JournalError, match="not a wisync-broker-journal"):
            BrokerJournal(tmp_path).replay()

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": "wisync-broker-journal", "version": 99}\n')
        with pytest.raises(JournalError, match="version 99"):
            BrokerJournal(tmp_path).replay()

    def test_unknown_kind_warns_and_is_skipped(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "teleported", "key": "k"})
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
        with pytest.warns(JournalWarning, match="unrecognized"):
            states = BrokerJournal(tmp_path).replay()
        assert states["k"].attempts == 1

    def test_reopening_appends_without_a_second_header(self, tmp_path):
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": "k", "worker": "w"})
        with BrokerJournal(tmp_path) as journal:
            journal.append({"kind": "released", "key": "k"})
        lines = BrokerJournal(tmp_path).path.read_text().splitlines()
        assert len(lines) == 3  # header + two records
        assert BrokerJournal(tmp_path).replay()["k"].attempts == 0


_KEYS = ("k-a", "k-b", "k-c")

_RECORDS = st.sampled_from(_KEYS).flatmap(lambda key: st.one_of(
    st.just({"kind": "assigned", "key": key, "worker": "w1"}),
    st.just({"kind": "assigned", "key": key, "worker": "w2"}),
    st.just({"kind": "released", "key": key}),
    st.just({"kind": "excluded", "key": key, "worker": "w1", "reason": "boom"}),
    st.just({"kind": "checkpointed", "key": key, "snapshot": {"events": 10}}),
    st.just({"kind": "completed", "key": key, "result": {"total_cycles": 1}}),
    st.just({"kind": "failed", "key": key, "reasons": ["x"]}),
))


def _write_journal(directory, records):
    with BrokerJournal(directory) as journal:
        for record in records:
            journal.append(record)


class TestReplayProperties:
    @given(records=st.lists(_RECORDS, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_replay_is_a_pure_idempotent_function_of_the_file(self, records):
        with tempfile.TemporaryDirectory() as directory:
            _write_journal(directory, records)
            first = BrokerJournal(directory).replay()
            second = BrokerJournal(directory).replay()
        assert first == second
        for state in first.values():
            assert isinstance(state, TaskReplay)
            assert state.attempts >= 0
            assert 0 <= state.settled_attempts() <= state.attempts
            if state.result is not None or state.failed:
                assert not state.leased  # terminal tasks hold no lease

    @given(records=st.lists(_RECORDS, min_size=1, max_size=10), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_torn_tail_costs_exactly_the_last_record(self, records, data):
        # For every journal and every truncation point inside the last
        # record, replay must warn and produce exactly the state of the
        # journal without that record — no more, no less.
        with tempfile.TemporaryDirectory() as reference:
            _write_journal(reference, records[:-1])
            expected = BrokerJournal(reference).replay()
        with tempfile.TemporaryDirectory() as directory:
            _write_journal(directory, records)
            path = BrokerJournal(directory).path
            raw = path.read_text(encoding="utf-8")
            lines = raw.splitlines(keepends=True)
            last = lines[-1]
            # Cut at least the newline plus one byte of the record: any
            # proper prefix of a serialized JSON object is invalid JSON.
            cut = data.draw(st.integers(min_value=2, max_value=len(last) - 1))
            path.write_text("".join(lines[:-1]) + last[:-cut], encoding="utf-8")
            with pytest.warns(JournalWarning, match="torn tail"):
                got = BrokerJournal(directory).replay()
        assert got == expected


class TestBrokerRestartRecovery:
    def _worker(self, port, *extra):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}", *extra],
            env={"PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def test_restart_reemits_completed_specs_without_rerunning(self, tmp_path):
        # Phase 1: a --max-tasks 1 worker completes exactly one spec, then
        # the broker "dies" (close() drops its sockets; the journal is what
        # survives, exactly as under SIGKILL — fsync'd per record).
        specs = [tightloop_spec(8), tightloop_spec(16), tightloop_spec(4, 50)]
        payloads = [spec.to_dict() for spec in specs]
        first = Broker(
            payloads, journal_dir=str(tmp_path), lease_seconds=10.0
        ).start()
        try:
            proc = self._worker(first.port, "--max-tasks", "1")
            stream = first.events()
            kind, done_position, done_result = next(stream)
            assert kind == "result"
            proc.wait(timeout=30)
        finally:
            first.close()

        # Phase 2: a fresh broker on the same journal replays the completed
        # spec (re-emitted, not re-run) and serves only the remaining two.
        second = Broker(payloads, journal_dir=str(tmp_path), lease_seconds=10.0)
        assert second.stats["replayed"] == 1
        assert second.outstanding() == 2
        second.start()
        try:
            drainer = self._worker(second.port)
            collected = {}
            for kind, position, payload in second.events():
                assert kind == "result"
                collected[position] = payload
            drainer.wait(timeout=30)
        finally:
            second.close()

        assert sorted(collected) == [0, 1, 2]
        # Zero re-runs of the completed spec: only two fresh assignments.
        assert second.stats["assigned"] == 2
        serial = SerialExecutor().run(specs)
        for position, result in collected.items():
            assert result.total_cycles == serial[position].total_cycles
            assert result.events_processed == serial[position].events_processed
            assert result.stats.to_dict() == serial[position].stats.to_dict()
        assert collected[done_position].total_cycles == done_result.total_cycles

    def test_restart_tolerates_a_torn_tail(self, tmp_path):
        specs = [tightloop_spec(8), tightloop_spec(16)]
        payloads = [spec.to_dict() for spec in specs]
        first = Broker(
            payloads, journal_dir=str(tmp_path), lease_seconds=10.0
        ).start()
        try:
            proc = self._worker(first.port, "--max-tasks", "1")
            kind, _, _ = next(first.events())
            assert kind == "result"
            proc.wait(timeout=30)
        finally:
            first.close()
        journal_path = BrokerJournal(tmp_path).path
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "assigned", "key": ')  # died mid-append
        with pytest.warns(JournalWarning, match="torn tail"):
            second = Broker(
                payloads, journal_dir=str(tmp_path), lease_seconds=10.0
            )
        assert second.stats["replayed"] == 1
        assert second.outstanding() == 1

    def test_replaying_twice_is_idempotent_at_the_broker_too(self, tmp_path):
        specs = [tightloop_spec(8)]
        payloads = [spec.to_dict() for spec in specs]
        first = Broker(
            payloads, journal_dir=str(tmp_path), lease_seconds=10.0
        ).start()
        try:
            proc = self._worker(first.port)
            assert next(first.events())[0] == "result"
            proc.wait(timeout=30)
        finally:
            first.close()
        for _ in range(2):  # construct-from-journal twice: same state
            broker = Broker(payloads, journal_dir=str(tmp_path))
            assert broker.stats["replayed"] == 1
            assert broker.outstanding() == 0


class TestJoblessJournalCompatibility:
    """A journal written before sweeps ran as one-job stores still resumes.

    Its task records carry no ``job`` field.  Replay is by spec key, so a
    journaled :class:`Broker` adopts them exactly as before.
    """

    def _write_jobless_journal(self, directory, done, retried):
        result = json.dumps(execute_spec(done).to_dict(), separators=(",", ":"))
        lines = [
            '{"format":"wisync-broker-journal","version":1}',
            f'{{"kind":"assigned","key":"{done.key()}","worker":"w1"}}',
            f'{{"kind":"completed","key":"{done.key()}","result":{result}}}',
            f'{{"kind":"assigned","key":"{retried.key()}","worker":"w1"}}',
            f'{{"kind":"excluded","key":"{retried.key()}","worker":"w1",'
            f'"reason":"boom"}}',
            f'{{"kind":"assigned","key":"{retried.key()}","worker":"w2"}}',
        ]
        path = Path(directory) / "journal.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_broker_resumes_a_jobless_journal(self, tmp_path):
        done, retried, fresh = (
            tightloop_spec(8), tightloop_spec(16), tightloop_spec(4),
        )
        specs = [done, retried, fresh]
        path = self._write_jobless_journal(tmp_path, done, retried)
        broker = Broker(
            [spec.to_dict() for spec in specs],
            journal_dir=str(tmp_path), lease_seconds=10.0,
        )
        assert broker.stats["replayed"] == 1
        assert broker.outstanding() == 2
        task = broker._store._jobs[broker._job].tasks[1]
        # Two assignments, the second in flight at death and refunded.
        assert task.attempts == 1
        assert task.excluded == {"w1"}
        assert task.errors == ["boom"]
        broker.start()
        try:
            worker = threading.Thread(
                target=run_worker, args=("127.0.0.1", broker.port), daemon=True
            )
            worker.start()
            collected = {}
            for kind, position, payload in broker.events():
                assert kind == "result"
                collected[position] = payload
            worker.join(timeout=30)
        finally:
            broker.close()
        assert broker.stats["assigned"] == 2  # the finished spec never re-ran
        serial = SerialExecutor().run(specs)
        assert sorted(collected) == [0, 1, 2]
        for position, result in collected.items():
            assert results_identical(result, serial[position])
        # New records carry the job field and no job-submitted record.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        added = records[6:]
        assert added and all(record.get("job") == broker._job for record in added)
        assert not any(r.get("kind") == "job-submitted" for r in records)

    def test_service_journal_still_warns_on_jobless_records(self, tmp_path):
        self._write_jobless_journal(
            tmp_path, tightloop_spec(8), tightloop_spec(16)
        )
        with pytest.warns(JournalWarning, match="job-less record"):
            assert ServiceJournal(tmp_path).replay_jobs() == {}


class TestRestartRecoveryProperty:
    @given(data=st.data())
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_grid_random_kill_point_recovers_bit_identical(self, data):
        # The satellite's acceptance property: for a random tightloop grid
        # and a random kill point, kill-broker -> restart-with-journal ->
        # rejoin yields results bit-identical to serial, and the surviving
        # journal replays idempotently.
        grid = data.draw(st.lists(
            st.tuples(st.sampled_from([20, 60, 120]), st.sampled_from([8, 16])),
            min_size=2, max_size=4, unique=True,
        ))
        kill_at = data.draw(st.floats(min_value=0.05, max_value=1.2))
        specs = [
            tightloop_spec(num_cores, iterations)
            for iterations, num_cores in grid
        ]
        schedule = ChaosSchedule(
            seed=0, kills=(KillEvent(target="broker", at=kill_at),)
        )
        with tempfile.TemporaryDirectory() as journal_dir:
            report = run_embedded_drill(
                specs, schedule, journal_dir,
                pool=2, lease_seconds=10.0, timeout=120.0,
            )
            journal = BrokerJournal(journal_dir)
            if journal.exists():
                assert journal.replay() == journal.replay()
        problems = verify_against_serial(specs, report)
        assert problems == [], f"kill@{kill_at:.2f}s: {problems}"
