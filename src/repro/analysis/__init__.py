"""Analysis layer: MetricFrame, declarative reports, comparisons, metrics.

* :mod:`repro.analysis.frame` — the typed, queryable, columnar
  :class:`MetricFrame` every results consumer is built on.
* :mod:`repro.analysis.report` — declarative :class:`Report` definitions
  (the experiment modules each declare one).
* :mod:`repro.analysis.compare` — frame diffing with per-metric regression
  thresholds (``repro compare``, the profile gate, CI perf-smoke).
* :mod:`repro.analysis.metrics` — scalar metric functions with validated
  denominators.
* :mod:`repro.analysis.area_power` / :mod:`repro.analysis.tables` — the
  Table 4 analytical model and fixed-width text rendering.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.area_power": (
        "CORE_REFERENCES",
        "CoreReference",
        "area_power_table",
    ),
    "repro.analysis.compare": (
        "FrameComparison",
        "MetricDelta",
        "bench_frame",
        "compare_frames",
        "load_frame",
    ),
    "repro.analysis.frame": ("Column", "MetricFrame", "Pivot", "frame_from_sweep"),
    "repro.analysis.metrics": (
        "cycles_per_operation",
        "speedup",
        "speedups_over_baseline",
        "throughput_per_kcycle",
    ),
    "repro.analysis.report": ("AggregateRow", "Report"),
    "repro.analysis.tables": ("format_table", "render_columns", "render_mapping"),
})

__all__ = [
    "CoreReference",
    "CORE_REFERENCES",
    "area_power_table",
    "speedup",
    "speedups_over_baseline",
    "throughput_per_kcycle",
    "cycles_per_operation",
    "Column",
    "MetricFrame",
    "Pivot",
    "frame_from_sweep",
    "Report",
    "AggregateRow",
    "FrameComparison",
    "MetricDelta",
    "compare_frames",
    "bench_frame",
    "load_frame",
    "format_table",
    "render_mapping",
    "render_columns",
]
