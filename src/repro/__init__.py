"""WiSync reproduction library.

A behavioural/timing reproduction of *WiSync: An Architecture for Fast
Synchronization through On-Chip Wireless Communication* (ASPLOS 2016): a
manycore timing model with a conventional cache-coherent memory hierarchy, a
wired 2D mesh, and the WiSync wireless Broadcast Memory with its Data and
Tone channels, plus the synchronization library, workloads, and experiment
harness needed to regenerate every table and figure of the paper's
evaluation.

Typical use::

    from repro import Manycore, SyncFactory, wisync
    from repro.isa.operations import Compute

    machine = Manycore(wisync(num_cores=16))
    program = machine.new_program("demo")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads=16)

    def body(ctx):
        yield Compute(100)
        yield from barrier.wait(ctx)

    for _ in range(16):
        program.add_thread(body)
    result = machine.run()
    print(result.summary())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": (
        "BackoffConfig",
        "BroadcastMemoryConfig",
        "CacheConfig",
        "CoreConfig",
        "DataChannelConfig",
        "MachineConfig",
        "MemoryConfig",
        "NocConfig",
        "SyncConfig",
        "ToneChannelConfig",
        "default_machine_config",
    ),
    "repro.machine.configs": (
        "baseline",
        "baseline_plus",
        "config_by_name",
        "paper_configurations",
        "sensitivity_variants",
        "wisync",
        "wisync_not",
    ),
    "repro.machine.manycore": ("Manycore", "Program"),
    "repro.machine.results": ("SimResult",),
    "repro.analysis.frame": ("MetricFrame",),
    "repro.analysis.report": ("Report",),
    "repro.analysis.compare": ("compare_frames", "load_frame"),
    "repro.runner.distributed": ("DistributedExecutor",),
    "repro.runner.executor": ("ParallelExecutor", "SerialExecutor"),
    "repro.runner.cache": ("ResultCache",),
    "repro.runner.runner": ("Runner", "SweepResult"),
    "repro.runner.spec": ("RunSpec", "SweepSpec"),
    "repro.runner.registry": ("register_workload", "workload_names"),
    "repro.sync.api": ("SyncFactory",),
})

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig",
    "CoreConfig",
    "CacheConfig",
    "NocConfig",
    "MemoryConfig",
    "BroadcastMemoryConfig",
    "DataChannelConfig",
    "ToneChannelConfig",
    "BackoffConfig",
    "SyncConfig",
    "default_machine_config",
    # machine
    "Manycore",
    "Program",
    "SimResult",
    "baseline",
    "baseline_plus",
    "wisync",
    "wisync_not",
    "paper_configurations",
    "sensitivity_variants",
    "config_by_name",
    # synchronization
    "SyncFactory",
    # declarative run API
    "RunSpec",
    "SweepSpec",
    "Runner",
    "SweepResult",
    "SerialExecutor",
    "ParallelExecutor",
    "DistributedExecutor",
    "ResultCache",
    "register_workload",
    "workload_names",
    # analysis API
    "MetricFrame",
    "Report",
    "compare_frames",
    "load_frame",
]
