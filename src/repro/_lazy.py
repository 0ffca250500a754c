"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package lists each public name once, under the submodule that defines
it, and imports nothing up front: the first read of a name imports its
submodule and caches the value in the package namespace.  So importing
one module of a package (``repro.core.fitting``, say) no longer executes
every module the package re-exports, and each command loads only the
modules it runs.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """The ``(__getattr__, __all__)`` pair for ``package``.

    ``table`` maps a submodule path relative to ``package`` (``"fitting"``,
    ``"core.regions"``) to the public names it defines.  ``__all__`` is
    every name in table order.  An unknown name raises ``AttributeError``,
    so ``from package import submodule`` still falls through to the import
    system.
    """
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__`` is the import statement's own entry point, so
        # ``python -X importtime`` logs the module; importlib's
        # ``import_module`` would load it unlogged.
        qualified = f"{package}.{module}"
        __import__(qualified)
        value = getattr(sys.modules[qualified], name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owners)
