"""Type-aware value keys for grouping row tables.

Python's ``bool`` is a subclass of ``int``, so ``True == 1`` and
``hash(True) == hash(1)`` — plain dict keys silently merge a boolean axis
value with an integer one (a sweep grouping rows by a
``battery_life_extension`` axis next to a numeric axis value ``1`` would
pool them into one bucket).  The key here discriminates exactly that case
and nothing else: ``1`` and ``1.0`` still share a key (numeric coercion
through the typed parameter schemas already canonicalises those), but a
``bool`` only ever matches a ``bool``.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

__all__ = ["typed_key"]


def typed_key(value: Any) -> Tuple[str, Hashable]:
    """A hashable grouping key for ``value`` that keeps bools apart.

    >>> typed_key(True) == typed_key(1)
    False
    >>> typed_key(1) == typed_key(1.0)
    True
    """
    if isinstance(value, bool):
        return ("bool", value)
    return ("", value)

