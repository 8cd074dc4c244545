"""The lazily resolved package surface and what light commands import.

Package ``__init__`` modules resolve their public names on first access
(``repro._lazy``), so ``import repro`` and the light CLI commands load only
the modules they use.  The import checks below run fresh interpreters under
``python -X importtime`` and read module names from its stderr report: they
are deterministic and never time anything.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.cpu",
    "repro.experiments",
    "repro.isa",
    "repro.lint",
    "repro.machine",
    "repro.mem",
    "repro.noc",
    "repro.osmodel",
    "repro.runner",
    "repro.service",
    "repro.sim",
    "repro.snapshot",
    "repro.sync",
    "repro.wireless",
]


def _imported(*argv: str) -> Set[str]:
    """Modules a fresh interpreter running ``argv`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True,
        text=True, env={"PYTHONPATH": str(SRC)}, cwd=SRC.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _loaded_under(modules: Set[str], prefixes: List[str]) -> List[str]:
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def _declared_exports(package: str) -> Dict[str, str]:
    """``{name: defining module}`` as the package's ``lazy_exports`` call declares it."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            exports = ast.literal_eval(node.args[1])
            return {name: module for module, names in exports.items() for name in names}
    raise AssertionError(f"{init} does not call lazy_exports")


class TestImportSurface:
    def test_import_repro_loads_only_the_helper(self):
        modules = _imported("-c", "import repro")
        assert _loaded_under(modules, ["repro"]) == ["repro", "repro._lazy"]

    def test_list_skips_the_simulator_and_heavy_runner_modules(self):
        modules = _imported("-m", "repro", "list")
        assert "repro.runner.cli" in modules
        assert _loaded_under(modules, [
            "repro.machine.manycore",
            "repro.analysis",
            "repro.experiments",
            "repro.runner.distributed",
            "repro.runner.profile",
            "urllib.request",
        ]) == []

    def test_worker_startup_skips_analysis_experiments_client_and_chaos(self):
        modules = _imported("-c", (
            "import repro.runner.cli\n"
            "from repro.runner.distributed import run_worker\n"
            "from repro.runner.executor import execute_spec\n"
            "from repro.runner.registry import REGISTRY\n"
            "REGISTRY.get('tightloop')\n"
        ))
        assert "repro.runner.distributed" in modules
        assert "repro.workloads.tightloop" in modules
        assert _loaded_under(modules, [
            "repro.analysis",
            "repro.experiments",
            "repro.runner.service_client",
            "repro.runner.chaos",
            "repro.service",
            "urllib.request",
        ]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPublicApi:
    def test_declared_names_are_the_public_names(self, package):
        module = importlib.import_module(package)
        eager = {"__version__"} if package == "repro" else set()
        assert set(_declared_exports(package)) == set(module.__all__) - eager

    def test_every_name_resolves_to_its_defining_object(self, package):
        module = importlib.import_module(package)
        for name, owner in _declared_exports(package).items():
            assert getattr(module, name) is getattr(importlib.import_module(owner), name), name

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_public_name(self, package):
        namespace: Dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(module, "no_such_export")
        assert not hasattr(module, "no_such_export")


def test_submodules_resolve_as_attributes():
    import repro

    assert repro.runner.cli is importlib.import_module("repro.runner.cli")


def test_profile_names_match_the_pinned_sweeps():
    from repro.runner.cli import PROFILE_NAMES
    from repro.runner.profile import PROFILE_SWEEPS, profile_names

    assert list(PROFILE_NAMES) == sorted([*PROFILE_SWEEPS, "restore"])
    assert profile_names() == list(PROFILE_NAMES)


def test_list_exits_quietly_when_the_reader_closes_stdout():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "list", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(SRC)}, cwd=SRC.parent,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == ""
