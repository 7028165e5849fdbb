"""The bounded cache every memo in the system is built on.

The broker's answers and work units, the SQL engines' routing
decisions, the evaluator's contexts and the incremental engine's
per-component repair sets and witness indexes are all kept in a
:class:`BoundedCache`: a thread-safe mapping that holds at most
``max_entries`` values and evicts the least recently used one to make
room.  Each cache names its *family* and counts its own hits, misses
and evictions; :func:`tally` sums caches per family, which is what the
broker's ``cache_stats()`` and ``/metrics`` read.

Keys are content fingerprints (query texts, row sets, instance
states), so a stale entry can never be served: it simply stops being
looked up and ages out under the bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, Hashable, Iterable, List, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: The fields of :meth:`BoundedCache.stats`.
STATS_FIELDS = ("entries", "hits", "misses", "evictions")


class BoundedCache(Generic[K, V]):
    """Thread-safe LRU map of at most ``max_entries`` non-``None`` values."""

    __slots__ = (
        "family", "max_entries", "_entries", "_lock",
        "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int, family: str) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.family = family
        self.max_entries = max_entries
        self._entries: "OrderedDict[K, V]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def __len__(self) -> int:
        # Size probe; atomic under the GIL, staleness is harmless.
        return len(self._entries)  # lint: unguarded-ok

    def get(self, key: K) -> Optional[V]:
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Store ``value``, evicting the least recently used entry if full."""
        with self._lock:
            evict = (
                key not in self._entries
                and len(self._entries) >= self.max_entries
            )
            if evict:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = value
            self._entries.move_to_end(key)

    def values(self) -> List[V]:
        """A snapshot of every stored value (recency is left unchanged)."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (counters keep their totals)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """``{entries, hits, misses, evictions}``, one consistent snapshot."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def add_stats(totals: Dict[str, Dict[str, int]], family: str, counts) -> None:
    """Add ``counts`` (fields of :meth:`BoundedCache.stats`) to
    ``family``'s row of ``totals``."""
    row = totals.setdefault(family, dict.fromkeys(STATS_FIELDS, 0))
    for name, value in counts.items():
        row[name] += value


def tally(caches: Iterable[BoundedCache], totals=None) -> Dict[str, Dict[str, int]]:
    """Sum ``caches``' stats per family into ``totals`` (by default a
    new table) and return it."""
    totals = {} if totals is None else totals
    for cache in caches:
        add_stats(totals, cache.family, cache.stats())
    return totals
