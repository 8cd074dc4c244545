"""Static analysis for the determinism & contract rules of the reproduction.

Every guarantee the repo makes — golden-pinned figures, distributed sweeps
bit-identical to serial, snapshot restore verified bit-for-bit, chaos
recovery identical to baseline — rests on contracts nothing used to check
statically.  ``repro lint`` walks the AST and fails fast on:

==========  ==============================================================
DET001      ambient entropy (``random``/``os.urandom``/``uuid4``/wall
            clock) inside sim-core packages
DET002      iteration over bare sets / dict views where order leaks into
            event order or stats
SNAP001     machine attributes missing from the checkpoint capture lists
PROTO001    broker/worker message kinds or journal record kinds that one
            side emits and the other never handles
ERR001      ``raise`` of exception types outside the ReproError hierarchy
SLOT001     assignment to attributes missing from ``__slots__``
==========  ==============================================================

Suppress a deliberate violation inline with ``# repro: noqa[RULE-ID] --
reason``; grandfather pre-existing findings with a baseline file
(``--baseline``).  See the README's "Static analysis" section.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lint.engine": (
        "Finding",
        "LintEngine",
        "ModuleInfo",
        "ModuleWalker",
        "ProjectRule",
        "Rule",
        "SCOPE_LIBRARY",
        "SCOPE_PROJECT",
        "SCOPE_SIM_CORE",
        "SEVERITY_ERROR",
        "SEVERITY_WARNING",
        "SIM_CORE_PACKAGES",
        "apply_baseline",
        "load_baseline",
        "write_baseline",
    ),
    "repro.lint.rules": ("default_rules",),
})

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "ModuleWalker",
    "ProjectRule",
    "Rule",
    "SCOPE_LIBRARY",
    "SCOPE_PROJECT",
    "SCOPE_SIM_CORE",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SIM_CORE_PACKAGES",
    "apply_baseline",
    "default_rules",
    "load_baseline",
    "write_baseline",
]
