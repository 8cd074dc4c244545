"""Multi-tenant sweep service: named job queues over one shared worker pool.

``repro serve`` runs a persistent daemon that accepts SweepSpec jobs over
an HTTP/JSON API, schedules their specs fairly across every connected
``repro worker`` process, short-circuits specs already present in the
service result cache, and journals every transition so a SIGKILL'd daemon
resumes its jobs on restart.  See ``README.md`` ("Sweep service") for the
operational guide.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.daemon": ("ServiceBroker", "SweepService", "run_service"),
    "repro.service.jobstore": (
        "JOB_CANCELLED",
        "JOB_COMPLETED",
        "JOB_FAILED",
        "JOB_QUEUED",
        "JOB_RUNNING",
        "TERMINAL_JOB_STATES",
        "Job",
        "JobStore",
        "format_task_id",
        "parse_task_id",
    ),
    "repro.service.httpapi": ("ServiceHTTPServer",),
    "repro.service.scheduler": ("STRIDE_SCALE", "FairShareScheduler"),
})

__all__ = [
    "JOB_CANCELLED",
    "JOB_COMPLETED",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "STRIDE_SCALE",
    "TERMINAL_JOB_STATES",
    "FairShareScheduler",
    "Job",
    "JobStore",
    "ServiceBroker",
    "ServiceHTTPServer",
    "SweepService",
    "format_task_id",
    "parse_task_id",
    "run_service",
]
