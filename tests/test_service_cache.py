"""Tests for the serving layer's cache and session registry."""

from __future__ import annotations

import threading

import pytest

from repro.errors import SpecificationError
from repro.experiments import experiment1_session
from repro.io.project import project_fingerprint, session_to_dict
from repro.service.cache import LRUCache, check_cache_key
from repro.service.sessions import SessionRegistry


def _doc(partition_count: int = 2) -> dict:
    return session_to_dict(
        experiment1_session(
            package_number=2, partition_count=partition_count
        )
    )


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=4)
        value, hit = cache.get_or_compute("k", lambda: 41)
        assert (value, hit) == (41, False)
        value, hit = cache.get_or_compute("k", lambda: 99)
        assert (value, hit) == (41, True)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert len(cache) == 2
        _, hit_a = cache.get_or_compute("a", lambda: 0)
        _, hit_b = cache.get_or_compute("b", lambda: 2)
        assert hit_a is True and hit_b is False

    def test_failures_are_not_cached(self):
        cache = LRUCache(capacity=4)

        def boom():
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        assert len(cache) == 0
        value, hit = cache.get_or_compute("k", lambda: 7)
        assert (value, hit) == (7, False)
        assert cache.stats()["misses"] == 2

    def test_single_flight_under_concurrency(self):
        """N concurrent identical requests compute once: 1 miss, N-1 hits."""
        cache = LRUCache(capacity=4)
        computes = []
        release = threading.Event()
        started = threading.Barrier(9)  # 8 requesters + main

        def factory():
            computes.append(1)
            release.wait(5)
            return "value"

        results = []

        def worker():
            started.wait(5)
            results.append(cache.get_or_compute("hot", factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        started.wait(5)  # all 8 are now racing on the same key
        release.set()
        for t in threads:
            t.join(10)
        assert len(computes) == 1
        assert all(value == "value" for value, _ in results)
        assert sum(1 for _, hit in results if not hit) == 1
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 7

    def test_check_cache_key_separates_options(self):
        fp = "a" * 64
        assert check_cache_key(fp, "iterative") != check_cache_key(
            fp, "enumeration"
        )
        assert check_cache_key(fp, "iterative", True) != check_cache_key(
            fp, "iterative", False
        )
        assert check_cache_key(fp, "iterative") != check_cache_key(
            "b" * 64, "iterative"
        )


class TestSessionRegistry:
    def test_upload_is_idempotent(self):
        registry = SessionRegistry(capacity=4)
        entry1, created1 = registry.put(_doc())
        entry2, created2 = registry.put(_doc())
        assert created1 is True and created2 is False
        assert entry1 is entry2
        assert entry1.fingerprint == project_fingerprint(_doc())
        assert entry1.project_id == entry1.fingerprint[:16]

    def test_eviction_bounds_memory(self):
        registry = SessionRegistry(capacity=1)
        entry1, _ = registry.put(_doc(partition_count=1))
        entry2, _ = registry.put(_doc(partition_count=2))
        assert entry1.project_id != entry2.project_id
        assert registry.get(entry1.project_id) is None
        assert registry.get(entry2.project_id) is entry2
        assert registry.stats()["evictions"] == 1
        assert len(registry) == 1

    def test_get_unknown_returns_none(self):
        registry = SessionRegistry(capacity=2)
        assert registry.get("nope") is None

    def test_malformed_document_raises(self):
        registry = SessionRegistry(capacity=2)
        doc = _doc()
        del doc["partitions"][0]["chip"]
        with pytest.raises(SpecificationError):
            registry.put(doc)

    def test_unfingerprintable_document_raises(self):
        # Ops that cannot be sorted, and nesting that parses but is too
        # deep to re-encode, fail as the document's fault.
        registry = SessionRegistry(capacity=2)
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        for doc in (
            {**_doc(), "partitions": [{"name": "P1", "ops": [1, "a"]}]},
            {**_doc(), "graph": deep},
        ):
            with pytest.raises(SpecificationError):
                registry.put(doc)

    def test_entry_summary(self):
        registry = SessionRegistry(capacity=2)
        entry, _ = registry.put(_doc())
        summary = entry.to_dict()
        assert summary["partitions"] == ["P1", "P2"]
        assert summary["operations"] == 28  # AR lattice filter
