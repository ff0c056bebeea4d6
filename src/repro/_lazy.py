"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names the submodule that defines each of its public names; a
name's submodule is imported on the first attribute access, so importing
the package loads none of them.  Usage, in a package ``__init__``::

    _EXPORTS = {"matching": ("pair_matches",), "metrics": ("mean_std",)}
    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``{submodule: names}``."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
