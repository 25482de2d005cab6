"""Lazy package exports: a name's module is imported on first access.

A package ``__init__`` declares ``{module: names}`` and installs the
returned module-level ``__getattr__``/``__dir__`` (PEP 562), so importing
the package loads none of the modules behind its exports.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` resolving ``exports`` into ``namespace``.

    A resolved name is stored in ``namespace``, so later lookups are plain
    attribute reads.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
