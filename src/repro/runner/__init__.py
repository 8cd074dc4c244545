"""Declarative experiment-run API.

The evaluation grid of the paper — (workload x Table 2 configuration x core
count x seed) — is expressed as data (:class:`RunSpec` / :class:`SweepSpec`),
resolved through a :class:`WorkloadRegistry`, executed serially or on a
process pool, optionally memoized in an on-disk :class:`ResultCache`, and
driven either from Python (:class:`Runner`) or the ``python -m repro`` CLI.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runner.cache": ("ResultCache",),
    "repro.runner.chaos": (
        "ChaosSchedule",
        "KillEvent",
        "run_embedded_drill",
        "verify_against_serial",
    ),
    "repro.runner.distributed": (
        "Broker",
        "DistributedExecutor",
        "run_worker",
    ),
    "repro.runner.executor": (
        "ParallelExecutor",
        "SerialExecutor",
        "backoff_variant",
        "execute_spec",
    ),
    "repro.runner.journal": (
        "BrokerJournal",
        "JournalWarning",
        "ServiceJournal",
        "TaskReplay",
    ),
    "repro.runner.service_client": ("ServiceClient", "ServiceExecutor"),
    "repro.runner.supervisor": ("WorkerSupervisor", "backoff_delays"),
    "repro.runner.registry": (
        "REGISTRY",
        "WorkloadRegistry",
        "register_workload",
        "workload_names",
    ),
    "repro.runner.runner": (
        "Runner",
        "SpecProgress",
        "SweepProgressHook",
        "SweepResult",
        "default_runner",
    ),
    "repro.runner.spec": ("DEFAULT_SEED", "RunSpec", "SweepSpec"),
})

__all__ = [
    "DEFAULT_SEED",
    "RunSpec",
    "SweepSpec",
    "WorkloadRegistry",
    "REGISTRY",
    "register_workload",
    "workload_names",
    "SerialExecutor",
    "ParallelExecutor",
    "DistributedExecutor",
    "Broker",
    "BrokerJournal",
    "JournalWarning",
    "ServiceJournal",
    "TaskReplay",
    "ServiceClient",
    "ServiceExecutor",
    "WorkerSupervisor",
    "backoff_delays",
    "run_worker",
    "ChaosSchedule",
    "KillEvent",
    "run_embedded_drill",
    "verify_against_serial",
    "execute_spec",
    "backoff_variant",
    "ResultCache",
    "Runner",
    "SpecProgress",
    "SweepProgressHook",
    "SweepResult",
    "default_runner",
]
