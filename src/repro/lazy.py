"""Lazy package exports: public names that import their module on first use.

A package ``__init__`` that re-exports its submodules' names eagerly makes
``import repro.eval.cache`` load every sibling of ``cache`` too.  Packages
on the start-up path of the CLI instead declare where each public name
lives and install :func:`lazy_exports` as their module ``__getattr__``
(PEP 562)::

    _EXPORTS = {"repro.eval.cache": ("ArtifactCache",), ...}
    __all__ = export_names(_EXPORTS)
    __getattr__ = lazy_exports(__name__, _EXPORTS)

``from repro.eval import ArtifactCache`` then imports only
``repro.eval.cache``, and ``from repro.eval import taskgraph`` still
imports the submodule, because the hook raises :class:`AttributeError` for
every name it does not export.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence


def export_names(exports: Dict[str, Sequence[str]]) -> List[str]:
    """Every exported name, in declaration order (the package's ``__all__``)."""
    return [name for names in exports.values() for name in names]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package* serving *exports*.

    *exports* maps a module to the names the package re-exports from it.
    The first read of a name imports its module and stores the value on
    the package, so later reads never reach the hook.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
