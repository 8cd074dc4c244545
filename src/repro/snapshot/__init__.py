"""Checkpoint/restore for simulations and sweeps (simics-style).

Two cooperating strategies sit behind one :class:`Snapshot` API:

* **Native state capture** — everything enumerable about a running machine
  (engine clock / sequence counter / event count, the full
  :class:`~repro.sim.rng.DeterministicRng` derivation tree, the stats
  flyweights, per-thread progress) is serialized into a versioned,
  integrity-hashed JSON document.
* **Deterministic replay fast-forward** — the universal restore path for
  workloads whose live generator-based thread frames cannot be serialized:
  the snapshot records ``(spec, events_processed)`` and restore re-runs the
  spec to exactly that event count, which is exact because every source of
  randomness flows through seeded :class:`~repro.sim.rng.DeterministicRng`
  streams.  After the fast-forward the captured native state is compared
  bit-for-bit, so a snapshot written by drifted code can never silently
  produce a wrong continuation.

The package also provides :class:`RunManifest` — the on-disk record behind
``repro run --resume <run-id>`` grid-level resumability — the
checkpoint-file helpers used by ``execute_spec(checkpoint_every=...)``, the
distributed worker's checkpoint shipping, and the ``repro snapshot`` CLI,
plus :class:`CheckpointRing` (the bounded auto-snapshot buffer behind
``repro run --auto-snapshot`` and the ``repro debug`` time-travel
debugger in :mod:`repro.snapshot.debugger`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.snapshot.execution": (
        "DEFAULT_MAX_EVENTS",
        "ExecutionPreempted",
        "SpecExecution",
        "execute_with_checkpoints",
        "resume_to_completion",
        "run_prefix",
        "snapshot_after",
    ),
    "repro.snapshot.format": (
        "SNAPSHOT_FORMAT",
        "SNAPSHOT_VERSION",
        "STRATEGY_NATIVE",
        "STRATEGY_REPLAY",
        "Snapshot",
        "SnapshotWarning",
        "checkpoint_path",
        "load_snapshot",
        "parse_document",
        "save_snapshot",
        "snapshot_document",
        "try_load_snapshot",
    ),
    "repro.snapshot.ring": ("CheckpointRing", "RingEntry", "ring_path", "ring_paths"),
    "repro.snapshot.manifest": (
        "DEFAULT_RUNS_DIR",
        "RUNS_DIR_ENV",
        "RunManifest",
        "available_runs",
        "new_run_id",
        "runs_root",
    ),
})

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "STRATEGY_NATIVE",
    "STRATEGY_REPLAY",
    "Snapshot",
    "SnapshotWarning",
    "snapshot_document",
    "parse_document",
    "save_snapshot",
    "load_snapshot",
    "try_load_snapshot",
    "checkpoint_path",
    "DEFAULT_MAX_EVENTS",
    "SpecExecution",
    "ExecutionPreempted",
    "execute_with_checkpoints",
    "run_prefix",
    "snapshot_after",
    "resume_to_completion",
    "CheckpointRing",
    "RingEntry",
    "ring_path",
    "ring_paths",
    "RunManifest",
    "available_runs",
    "DEFAULT_RUNS_DIR",
    "RUNS_DIR_ENV",
    "new_run_id",
    "runs_root",
]
