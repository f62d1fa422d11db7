"""Lazy package namespaces (PEP 562; the Scientific Python SPEC 1 pattern).

A package ``__init__`` lists its public names under the module that
defines them and hands the table to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "repro.sim.link": ["run_uplink_ber", "simulate_uplink_stream"],
        "repro.measurement": ["MeasurementStream"],
    })

Each name is imported on first attribute access and then cached in the
package globals, so ``import repro.sim.link`` loads the ``repro.sim``
package without its sibling modules.  ``__all__``, ``dir()``,
``from pkg import *`` and ``from pkg import name`` behave as they did
when the ``__init__`` imported everything eagerly.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


class _Package(types.ModuleType):
    """A package whose export shares its name with the defining submodule.

    The import system binds every newly loaded submodule on its package,
    so once ``repro.analysis.sweep`` (the module) was imported directly,
    ``repro.analysis.sweep`` would stop being the exported function.
    Keeping the export bound is what ``from .sweep import sweep`` did.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__all__
            and hasattr(value, name)
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def attach(
    package: str,
    exports: Dict[str, Sequence[str]],
    eager: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    Args:
        package: the package's ``__name__``.
        exports: defining module -> the names the package re-exports
            from it; ``"attr as alias"`` exports ``attr`` as ``alias``.
        eager: names the ``__init__`` binds itself; they join
            ``__all__`` but are never resolved lazily.
    """
    module = sys.modules[package]
    namespace = module.__dict__
    origin: Dict[str, Tuple[str, str]] = {}
    for source, names in exports.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            origin[alias or attr] = (source, attr)
    public = sorted({*origin, *eager})

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        source, attr = origin[name]
        value = getattr(importlib.import_module(source), attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *public})

    if any(origin[name][0] == f"{package}.{name}" for name in origin):
        module.__class__ = _Package
    return __getattr__, __dir__, public
