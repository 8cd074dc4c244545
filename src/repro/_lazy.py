"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules would
import every submodule up front, so importing any leaf module pulls in the
whole subtree.  Instead each such ``__init__`` declares where its names live
and installs the ``__getattr__``/``__dir__`` pair built here::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.machine.configs": ("baseline", "wisync"),
        "repro.machine.manycore": ("Manycore", "Program"),
    })

The first access to an exported name imports its defining module and caches
the object in the package namespace, so later lookups are plain attribute
reads.  Submodules resolve too (``import repro; repro.runner.cli``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__``/``__dir__`` pair for ``package``.

    ``exports`` maps each defining module to the names it contributes.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(  # repro: noqa[ERR001] -- module __getattr__ protocol requires AttributeError
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__
