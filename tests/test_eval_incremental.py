"""End-to-end byte-identity of warm re-checks through the context.

The property: after an arbitrary random sequence of section-2.7
modifications, ``check()`` on the long-lived session (warm prediction
caches, kept task graph) returns a ``SearchResult`` whose
``to_dict()`` is byte-identical — modulo ``cpu_seconds`` — to a fresh
session evaluating the same partitioning from scratch.  Verified under
both heuristics, and under the process-pool engine.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EvaluationEngine
from repro.errors import PartitioningError
from repro.experiments import experiment1_session
from repro.service import ChopService

from tests.test_eval_taskgraph import apply_random_migration


def comparable(result):
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


def mutate_randomly(session, rng, steps):
    """A random designer-loop trajectory: migrations and chip moves."""
    chips = sorted(session.chips)
    for _ in range(steps):
        if rng.random() < 0.75:
            apply_random_migration(session, rng)
        else:
            name = rng.choice(sorted(session._partitions))
            try:
                session.move_partition(name, rng.choice(chips))
            except PartitioningError:
                continue


def fresh_clone(session):
    """A brand-new session holding the same partitioning."""
    clone = experiment1_session(partition_count=len(session._partitions))
    clone.set_partitions(
        list(session._partitions.values()),
        dict(session._partition_chip),
    )
    return clone


class TestWarmCheckIdentity:
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(["iterative", "enumeration"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_trajectory_matches_fresh_session(self, seed, heuristic):
        rng = random.Random(seed)
        warm = experiment1_session(partition_count=3)
        warm.check(heuristic=heuristic)  # prime every cache
        mutate_randomly(warm, rng, steps=rng.randint(1, 5))
        fresh = fresh_clone(warm)
        assert comparable(warm.check(heuristic=heuristic)) == comparable(
            fresh.check(heuristic=heuristic)
        )

    def test_interleaved_heuristics_share_one_context(self):
        rng = random.Random(29)
        warm = experiment1_session(partition_count=3)
        for _ in range(3):
            mutate_randomly(warm, rng, steps=1)
            fresh = fresh_clone(warm)
            for heuristic in ("iterative", "enumeration"):
                assert comparable(
                    warm.check(heuristic=heuristic)
                ) == comparable(fresh.check(heuristic=heuristic))

    def test_warm_recheck_hits_context(self):
        warm = experiment1_session(partition_count=3)
        warm.check()
        assert apply_random_migration(warm, random.Random(13))
        before = warm.eval_stats()
        warm.check()
        after = warm.eval_stats()
        # Only the two touched partitions miss; the third hits, and the
        # task graph is rebuilt once for the changed partitioning.
        assert after["hits"] > before["hits"]
        assert (
            after["taskgraph"]["full_builds"]
            == before["taskgraph"]["full_builds"] + 1
        )
        assert after["invalidations"] == before["invalidations"] + 1


class TestEngineIdentity:
    @pytest.mark.parametrize("seed", [1, 17])
    def test_pool_matches_fresh_serial(self, seed, pool_always):
        """Warm context + process pool == fresh serial."""
        rng = random.Random(seed)
        warm = experiment1_session(partition_count=3)
        engine = EvaluationEngine(workers=2)
        warm.check(heuristic="enumeration", engine=engine)
        mutate_randomly(warm, rng, steps=2)
        warm_result = warm.check(heuristic="enumeration", engine=engine)
        fresh = fresh_clone(warm)
        fresh_result = fresh.check(heuristic="enumeration")
        assert comparable(warm_result) == comparable(fresh_result)


class TestServiceGauge:
    def test_metrics_expose_eval_context(self):
        from repro.io.project import session_to_dict

        doc = session_to_dict(
            experiment1_session(package_number=2, partition_count=2)
        )
        service = ChopService(workers=1)
        try:
            import json

            status, payload, _route, _headers = service.handle(
                "POST", "/projects", json.dumps(doc).encode()
            )
            assert status in (200, 201)
            pid = payload["project_id"]
            # Two distinct requests (the verdict cache would swallow an
            # identical repeat): the second reaches the same warm
            # context and hits its prediction caches.
            for heuristic in ("iterative", "enumeration"):
                status, _, _, _ = service.handle(
                    "POST", f"/projects/{pid}/check",
                    json.dumps({"heuristic": heuristic}).encode(),
                )
                assert status == 200
            status, metrics, _, _ = service.handle(
                "GET", "/metrics", None
            )
            assert status == 200
            eval_gauges = metrics["eval"]
            assert eval_gauges["sessions"] == 1
            assert eval_gauges["hits"] > 0
            assert eval_gauges["taskgraph_full_builds"] >= 1
            assert eval_gauges["taskgraph_reuses"] >= 1
        finally:
            service.close()
