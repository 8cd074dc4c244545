"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module declares its evaluation grid as a ``*_sweep`` function returning
a :class:`~repro.runner.spec.SweepSpec`, executed through
:class:`~repro.runner.runner.Runner` — so any figure can be fanned out over a
:class:`~repro.runner.executor.ParallelExecutor`, memoized in a
:class:`~repro.runner.cache.ResultCache`, or driven from the
``python -m repro`` CLI — and its *presentation* as a
:class:`~repro.analysis.report.Report` over the sweep's
:class:`~repro.analysis.frame.MetricFrame` (axes, derived columns, pivot,
aggregate rows).  The ``run_*`` functions keep their historical signatures
and dict shapes, but are thin wrappers over ``Report.table(sweep.frame())``;
the ``format_*`` helpers render those dicts through the same Report, so the
``python -m repro report`` path is byte-identical.  The ``benchmarks/``
directory wraps these functions with pytest-benchmark.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.fig7_tightloop": (
        "FIG7_REPORT",
        "fig7_sweep",
        "format_fig7",
        "run_fig7",
    ),
    "repro.experiments.scenarios": (
        "format_scenarios",
        "run_scenarios",
        "scenario_frame",
        "scenario_sweep",
        "scenarios_report",
    ),
    "repro.experiments.fig8_livermore": (
        "FIG8_REPORT",
        "fig8_sweep",
        "format_fig8",
        "run_fig8",
    ),
    "repro.experiments.fig9_cas": (
        "FIG9_REPORT",
        "fig9_sweep",
        "format_fig9",
        "run_fig9",
    ),
    "repro.experiments.fig10_applications": (
        "fig10_report",
        "fig10_sweep",
        "format_fig10",
        "run_fig10",
    ),
    "repro.experiments.fig11_sensitivity": (
        "FIG11_REPORT",
        "fig11_sweep",
        "format_fig11",
        "run_fig11",
    ),
    "repro.experiments.table4_area_power": (
        "TABLE4_REPORT",
        "format_table4",
        "run_table4",
        "table4_frame",
    ),
    "repro.experiments.table5_utilization": (
        "TABLE5_REPORT",
        "format_table5",
        "run_table5",
        "table5_sweep",
    ),
})

__all__ = [
    "run_fig7", "format_fig7", "fig7_sweep", "FIG7_REPORT",
    "run_fig8", "format_fig8", "fig8_sweep", "FIG8_REPORT",
    "run_fig9", "format_fig9", "fig9_sweep", "FIG9_REPORT",
    "run_fig10", "format_fig10", "fig10_sweep", "fig10_report",
    "run_fig11", "format_fig11", "fig11_sweep", "FIG11_REPORT",
    "run_table4", "format_table4", "table4_frame", "TABLE4_REPORT",
    "run_table5", "format_table5", "table5_sweep", "TABLE5_REPORT",
    "run_scenarios", "format_scenarios", "scenario_sweep",
    "scenario_frame", "scenarios_report",
]
