"""Bounded LRU mapping shared by the hot-path memoisation caches.

The training and sweep hot paths memoise several kinds of derived objects —
encoded data statevectors, stacked data-state matrices, data-bound
discriminator circuits, transpile templates — and all of them need the same
behaviour: lookups refresh recency, inserts evict the stalest entries once a
size bound is exceeded.  :class:`LRUCache` centralises that idiom so every
cache evicts identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``None`` is reserved as the miss sentinel: values stored in the cache
    must not be ``None`` (none of the memoised objects are).

    Thread-safe: every mutation holds ``_lock``, so callers on different
    threads may share one cache; the lookup's get-then-``move_to_end`` pair
    would otherwise race a concurrent eviction into a ``KeyError``.

    Parameters
    ----------
    max_entries:
        Maximum number of entries held; the least recently used entries are
        evicted beyond it.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def max_entries(self) -> int:
        """The configured size bound."""
        return self._max_entries

    def get(self, key: Hashable) -> Any:
        """Return the cached value (refreshing recency) or ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the stalest entries."""
        if value is None:
            raise ValueError("LRUCache values must not be None (miss sentinel)")
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
