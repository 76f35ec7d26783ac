"""Unit tests for the shared size-bounded LRU (`repro.caching`)."""

from __future__ import annotations

import pytest

from repro.caching import DEFAULT_TABLE_LRU, LRUCache, table_lru_capacity
from repro.errors import AnalysisError


class TestCapacityResolution:
    def test_default_preserved(self, monkeypatch):
        monkeypatch.delenv("REPRO_TABLE_LRU", raising=False)
        assert table_lru_capacity() == DEFAULT_TABLE_LRU == 40

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_LRU", "3")
        assert table_lru_capacity() == 3

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_LRU", "")
        assert table_lru_capacity() == DEFAULT_TABLE_LRU

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_LRU", "many")
        with pytest.raises(AnalysisError, match="must be an integer"):
            table_lru_capacity()

    def test_non_positive_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_LRU", "0")
        with pytest.raises(AnalysisError, match=">= 1"):
            table_lru_capacity()

    def test_explicit_default_parameter(self, monkeypatch):
        monkeypatch.delenv("REPRO_TABLE_LRU", raising=False)
        assert table_lru_capacity(default=7) == 7


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(AnalysisError, match=">= 1"):
            LRUCache(0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert "a" in cache
        assert len(cache) == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh via put
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_peek_does_not_touch_recency_or_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", 3)  # "a" was NOT refreshed by peek
        assert cache.peek("a") is None

    def test_none_values_rejected(self):
        cache = LRUCache(1)
        with pytest.raises(AnalysisError, match="must not be None"):
            cache.put("a", None)

    def test_hit_rate_and_stats(self):
        cache = LRUCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        stats = cache.stats()
        assert stats["capacity"] == 4
        assert stats["size"] == 1
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.get("a") is None


class TestExperimentLayerIntegration:
    def test_experiment_caches_are_shared_lru_instances(self):
        from repro.experiments import common

        assert isinstance(common._UNIVERSE_CACHE, LRUCache)
        assert common._UNIVERSE_CACHE.capacity == table_lru_capacity()

    def test_experiment_layer_has_one_lru(self):
        """Universes carry their worst-case analysis, so the universe
        LRU is the only cache any experiment module holds."""
        import importlib
        import pkgutil

        import repro.experiments as package
        from repro.experiments import common

        caches = [
            value
            for info in pkgutil.iter_modules(package.__path__)
            for value in vars(
                importlib.import_module(f"{package.__name__}.{info.name}")
            ).values()
            if isinstance(value, LRUCache)
        ]
        assert caches == [common._UNIVERSE_CACHE]

    def test_get_universe_hits_the_lru(self):
        from repro.experiments.common import get_universe

        first = get_universe("paper_example")
        again = get_universe("paper_example")
        assert first is again
