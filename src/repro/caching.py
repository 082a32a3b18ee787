"""Small caching utilities shared across layers.

The thermal solvers and the methodology sweep engine both keep bounded
caches of expensive artefacts (factorisations, whole evaluations).  The
eviction policy lives here, in exactly one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class LruCache(Generic[V]):
    """Bounded least-recently-used mapping.

    ``get`` refreshes an entry's recency; ``put`` evicts the least recently
    used entries beyond ``max_entries``.  ``None`` is not a valid value (it
    is the miss sentinel).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        """Capacity of the cache."""
        return self._max_entries

    def get(self, key: Hashable) -> Optional[V]:
        """Value cached under ``key`` (refreshing its recency), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Cache ``value`` under ``key``, evicting the least recent beyond capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def items(self) -> List[Tuple[Hashable, V]]:
        """Snapshot of ``(key, value)`` pairs, least recently used first."""
        return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
