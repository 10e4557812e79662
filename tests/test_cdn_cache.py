"""Tests for the byte-bounded LRU cache."""

import pytest

from repro.cdn.cache import Cache
from repro.cdn.content import ContentObject
from repro.errors import CacheError


def obj(object_id: str, size: int = 100) -> ContentObject:
    return ContentObject(object_id, size)


class TestCacheBasics:
    def test_put_get(self):
        cache = Cache(1000)
        cache.put(obj("a"))
        assert cache.get("a").object_id == "a"
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = Cache(1000)
        assert cache.get("nope") is None
        assert cache.stats.misses == 1

    def test_capacity_never_exceeded(self):
        cache = Cache(350)
        for i in range(10):
            cache.put(obj(f"o{i}", 100))
            assert cache.used_bytes <= 350

    def test_oversized_object_rejected(self):
        cache = Cache(100)
        with pytest.raises(CacheError):
            cache.put(obj("big", 101))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(CacheError):
            Cache(0)

    def test_clear_preserves_stats(self):
        cache = Cache(1000)
        cache.put(obj("a"))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_reinsert_same_id_no_duplicate(self):
        cache = Cache(1000)
        cache.put(obj("a", 100))
        cache.put(obj("a", 100))
        assert len(cache) == 1
        assert cache.used_bytes == 100


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        cache = Cache(300)
        cache.put(obj("a"))
        cache.put(obj("b"))
        cache.put(obj("c"))
        cache.get("a")  # refresh a
        cache.put(obj("d"))  # must evict b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache and "d" in cache

    def test_eviction_returns_victims(self):
        cache = Cache(200)
        cache.put(obj("a"))
        cache.put(obj("b"))
        evicted = cache.put(obj("c", 200))
        assert set(evicted) == {"a", "b"}
        assert cache.stats.evictions == 2


class TestStats:
    def test_hit_ratio(self):
        cache = Cache(1000)
        cache.put(obj("a"))
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats
        assert stats.hits / (stats.hits + stats.misses) == pytest.approx(2 / 3)

    def test_insertions_counted(self):
        cache = Cache(1000)
        cache.put(obj("a"))
        cache.put(obj("b"))
        assert cache.stats.insertions == 2
