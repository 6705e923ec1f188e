"""Package exports resolved on first access (PEP 562).

``repro``, ``repro.sim`` and ``repro.fullsystem`` re-export names from
their modules. Importing those eagerly would load numpy and every
simulator for any ``repro.*`` import, even one that only reads the disk
cache. :func:`attach` instead gives a package a module-level
``__getattr__`` that imports the defining module the first time a name
is read, and a matching ``__dir__``. A name that is no export but a
submodule (``repro.api`` after ``import repro``) is imported the same
way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def attach(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names it exports. A
    resolved value is stored in the package namespace, so each name goes
    through ``__getattr__`` at most once.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
