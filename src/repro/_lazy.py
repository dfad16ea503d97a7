"""Lazy package re-exports (PEP 562).

Every ``repro`` package ``__init__`` re-exports its public names through
one table, ``{".module": ("name", ...)}``, handed to :func:`lazy_exports`.
Nothing in the table is imported until the name is first read, so
``import repro`` (or ``from repro.decomp import hoqri``) loads only the
modules the caller reaches: no scipy, no ``repro.serve``, no
``repro.verify``. ``__all__``, ``dir()`` and ``from package import name``
work as with eager imports; ``tools/check_layering.py`` reads the same
table to follow a re-exported name to the module that defines it.

A few exported names are also the names of submodules
(``repro.core.s3ttmc``, ``repro.decomp.hooi``, ...). Importing such a
submodule makes the import system bind the *module* on its package, and
a bound attribute never reaches ``__getattr__``; the package's module
class therefore rebinds that name to the exported object instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: Per package: exported name -> absolute name of the module defining it.
_ORIGINS: Dict[str, Dict[str, str]] = {}


class _LazyPackage(types.ModuleType):
    """Module class of a lazily re-exporting package."""

    def __setattr__(self, name: str, value: object) -> None:
        submodule = f"{self.__name__}.{name}"
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == submodule
            and _ORIGINS.get(self.__name__, {}).get(name) == submodule
        ):
            # The import system binding submodule ``name``; the package's
            # ``name`` is the object that submodule exports under it.
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` re-exporting
    each name of ``table[module]`` from ``module`` (relative to
    ``package``) on first access."""
    origins = {
        name: importlib.util.resolve_name(module, package)
        for module, names in table.items()
        for name in names
    }
    _ORIGINS[package] = origins
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        origin = origins.get(name)
        if origin is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(module.__dict__) | set(origins))

    return __getattr__, __dir__, list(origins)
