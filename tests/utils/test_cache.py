"""Tests for the shared bounded LRU cache."""

import threading

import pytest

from repro.utils.cache import LRUCache


class TestLRUCache:
    def test_miss_returns_none(self):
        assert LRUCache(2).get("absent") is None

    def test_put_and_get_round_trip(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh a by overwrite
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_size_bound_enforced(self):
        cache = LRUCache(3)
        for index in range(10):
            cache.put(index, index + 1)
        assert len(cache) == 3
        assert cache.max_entries == 3

    def test_clear(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_none_values_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(2).put("a", None)


class TestLRUCacheUnderThreads:
    """Threads sharing one cache never race it: every mutation holds the lock."""

    def hammer(self, cache, work, threads=4):
        errors = []
        barrier = threading.Barrier(threads)

        def run(worker):
            barrier.wait()
            try:
                work(worker)
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        pool = [threading.Thread(target=run, args=(w,)) for w in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []

    def test_concurrent_puts_keep_the_bound(self):
        cache = LRUCache(8)

        def work(worker):
            for i in range(500):
                cache.put((worker, i), i)

        self.hammer(cache, work)
        assert len(cache) == 8

    def test_lookups_racing_evictions_never_fail(self):
        cache = LRUCache(4)

        def work(worker):
            for i in range(2000):
                key = i % 16
                value = cache.get(key)
                assert value is None or value == key
                cache.put(key, key)

        self.hammer(cache, work)
        assert len(cache) == 4
