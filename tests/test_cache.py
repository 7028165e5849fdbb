"""Tests for the bounded cache primitive and the caches built on it."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cache import BoundedCache, tally
from repro.datagen.generators import grid_instance
from repro.obs import REGISTRY, observe_broker
from repro.query.evaluator import ContextCache
from repro.service.broker import AdmissionController


@pytest.fixture
def registry():
    """The process registry, enabled and empty for one test."""
    enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enabled = True
    yield REGISTRY
    REGISTRY.reset()
    REGISTRY.enabled = enabled


def _two_threads(hammer) -> list:
    """Run ``hammer(worker)`` on two threads with frequent switches;
    returns the exceptions they raised."""
    errors: list = []

    def run(worker: int) -> None:
        try:
            hammer(worker)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestBoundedCache:
    def test_holds_at_most_max_entries(self):
        cache = BoundedCache(3, "test")
        for key in range(10):
            cache.put(key, str(key))
        assert len(cache) == 3
        assert cache.evictions == 7
        assert [cache.get(key) for key in (7, 8, 9)] == ["7", "8", "9"]

    def test_evicts_the_least_recently_used_entry(self):
        cache = BoundedCache(2, "test")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_overwriting_a_key_neither_grows_nor_evicts(self):
        cache = BoundedCache(2, "test")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2 and cache.evictions == 0
        cache.put("c", 3)  # "b" is least recently used after the rewrite
        assert cache.get("b") is None and cache.get("a") == 10

    def test_counters_and_stats(self):
        cache = BoundedCache(1, "test")
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts "a"
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 1,
        }
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1  # totals survive a clear

    def test_reports_events_under_its_family(self, registry):
        cache = BoundedCache(1, "test_family")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.put("b", 2)
        observe_broker(tally([cache]), AdmissionController().stats())
        events = registry.snapshot()["repro_cache_events_total"]["values"]
        assert events == {
            "test_family,miss": 1.0,
            "test_family,hit": 2.0,
            "test_family,eviction": 1.0,
        }

    def test_values_is_a_snapshot_that_keeps_recency(self):
        cache = BoundedCache(2, "test")
        cache.put("a", 1)
        cache.put("b", 2)
        values = cache.values()
        assert values == [1, 2]
        cache.put("c", 3)  # "a" is still least recently used
        assert values == [1, 2]
        assert cache.get("a") is None and cache.values() == [2, 3]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BoundedCache(0, "test")


class TestThreadSafety:
    """Two threads race lookups, insertions and evictions."""

    STEPS = 5000

    def test_two_thread_stress(self):
        cache = BoundedCache(8, "test")

        def hammer(worker: int) -> None:
            for step in range(self.STEPS):
                key = (worker + step) % 24
                if cache.get(key) is None:
                    cache.put(key, step)

        assert not _two_threads(hammer)
        stats = cache.stats()
        assert len(cache) <= 8
        # A lost counter update would break the first; every entry,
        # resident or evicted, was inserted after a miss.
        assert stats["hits"] + stats["misses"] == 2 * self.STEPS
        assert stats["entries"] + stats["evictions"] <= stats["misses"]

    def test_context_cache_two_thread_stress(self):
        instance = grid_instance(3, 2)
        row_sets = [
            frozenset(list(instance.rows)[: size + 1]) for size in range(5)
        ]
        cache = ContextCache(max_entries=2)

        def hammer(worker: int) -> None:
            for step in range(600):
                rows = row_sets[(worker + step) % len(row_sets)]
                context = cache.context_for(rows, frozenset({step % 3}))
                assert context.relations is not None

        assert not _two_threads(hammer)
        assert len(cache) <= 2
