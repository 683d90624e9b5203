"""Lazy package re-exports (PEP 562).

A package ``__init__`` keeps its literal ``__all__`` and resolves each
name from its home module on first access, so importing the package
does not import every module it re-exports.  A program imports what it
uses: the batch simulation path never loads the metrics exposition,
the trace profiler or the figure code.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, homes: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of ``package``.

    ``homes`` maps each home module to the names it provides.  A name
    is imported on its first read and then bound in the package, so
    later reads do not come back here.
    """
    where = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        home = where.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
