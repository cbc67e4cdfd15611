"""Concurrency, registry and route-label tests for the service metrics."""

from __future__ import annotations

import threading
import uuid

from repro.obs.metrics import MetricsRegistry
from repro.service import ChopService
from repro.service.app import ROUTES, UNMATCHED
from repro.service.metrics import Metrics, status_class


class TestMetricsConcurrency:
    def test_concurrent_observe_and_snapshot_stay_consistent(self):
        """8 threads hammer observe() while snapshots run concurrently;
        totals must be exact and snapshots internally consistent."""
        metrics = Metrics(registry=MetricsRegistry())
        threads_n, per_thread = 8, 500
        barrier = threading.Barrier(threads_n + 1)
        errors = []

        def writer(index):
            try:
                barrier.wait(10)
                for i in range(per_thread):
                    metrics.observe(
                        f"GET /route{index % 2}", 0.001 * (i + 1), 200
                    )
            except Exception as exc:  # noqa: BLE001 — collect for assert
                errors.append(exc)

        def reader():
            try:
                barrier.wait(10)
                for _ in range(50):
                    snap = metrics.snapshot()
                    # A snapshot must always be internally consistent:
                    # the route counts sum to the grand total.
                    total = sum(
                        doc["count"] for doc in snap["routes"].values()
                    )
                    assert total == snap["requests_total"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads_n)
        ]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)

        assert not errors
        snap = metrics.snapshot()
        assert snap["requests_total"] == threads_n * per_thread
        assert snap["responses_by_status"] == {
            "200": threads_n * per_thread
        }
        assert sum(
            doc["count"] for doc in snap["routes"].values()
        ) == threads_n * per_thread
        for doc in snap["routes"].values():
            assert doc["latency_ms"]["p95"] >= doc["latency_ms"]["p50"]

    def test_gauge_suppliers_run_outside_the_metrics_lock(self):
        """A supplier that takes the registry lock itself must not
        deadlock — snapshot() promises to call suppliers unlocked."""
        registry = MetricsRegistry()
        metrics = Metrics(registry=registry)
        acquired = []

        def supplier():
            # Would time out if snapshot() held the (non-reentrant)
            # lock while invoking us.
            got = registry._lock.acquire(timeout=2)
            acquired.append(got)
            if got:
                registry._lock.release()
            # The canonical re-entrancy hazard: a supplier recording a
            # metric of its own.
            metrics.observe("supplier /self", 0.001, 200)
            return {"ok": True}

        registry.register_stats("probe", supplier)
        snap = metrics.snapshot()
        assert acquired == [True]
        assert snap["probe"] == {"ok": True}
        # The supplier's own observe landed for the next snapshot.
        assert metrics.snapshot()["requests_total"] == 1


class TestRegistryMirror:
    def test_observe_lands_in_registry_families(self):
        registry = MetricsRegistry()
        metrics = Metrics(registry=registry)
        metrics.observe("GET /x", 0.02, 200, trace_id="t-1")
        metrics.observe("GET /x", 0.04, 500)
        assert registry.get("requests_total").value == 2
        responses = {
            s["labels"]["status"]: s["value"]
            for s in registry.get("responses_total").samples()
        }
        assert responses == {"200": 1, "500": 1}
        latency = registry.get("request_latency_seconds")
        counts, total, _ = latency.aggregate(
            where={"route": "GET /x"}
        )
        assert total == 2
        ok_sample = next(
            s
            for s in latency.samples()
            if s["labels"]["class"] == "2xx"
        )
        assert ok_sample["exemplar"]["trace_id"] == "t-1"

    def test_status_class(self):
        assert status_class(200) == "2xx"
        assert status_class(404) == "4xx"
        assert status_class(503) == "5xx"

    def test_registered_stats_feed_json_and_gauges(self):
        registry = MetricsRegistry()
        metrics = Metrics(registry=registry)

        def supplier():
            return {"hits": 5}

        registry.register_stats("cache", supplier)
        docs = {d["name"]: d for d in registry.collect()}
        assert docs["cache_hits"]["samples"][0]["value"] == 5.0
        assert metrics.snapshot()["cache"] == {"hits": 5}
        # Withdrawing another supplier leaves the owner's in place.
        registry.unregister_stats("cache", lambda: {"hits": 0})
        assert metrics.snapshot()["cache"] == {"hits": 5}
        registry.unregister_stats("cache", supplier)
        assert "cache" not in metrics.snapshot()


class TestRouteLabels:
    def test_labels_are_bounded_by_the_route_table(self):
        """Junk paths and random ids never become metric labels: every
        response counts under a route template or ``(unmatched)``."""
        registry = MetricsRegistry()
        service = ChopService(workers=1, registry=registry)
        try:

            def get(path):
                status, _payload, route, _headers = service.handle(
                    "GET", path, None
                )
                service.note_request(route, 0.001, status, path=path)
                return status, route

            for _ in range(100):
                assert get(f"/{uuid.uuid4().hex}/x") == (404, UNMATCHED)
                assert get(f"/projects/{uuid.uuid4().hex[:16]}") == (
                    404, "GET /projects/{id}",
                )
                assert get(f"/jobs/{uuid.uuid4().hex}") == (
                    404, "GET /jobs/{id}",
                )
            assert get("/healthz") == (200, "GET /healthz")

            allowed = set(ROUTES) | {UNMATCHED}
            routes = {
                s["labels"]["route"]
                for s in registry.get("route_requests_total").samples()
            }
            assert routes <= allowed
            assert "GET /healthz" in routes
            latency_routes = {
                s["labels"]["route"]
                for s in registry.get("request_latency_seconds").samples()
            }
            assert latency_routes == routes
            snapshot = service.metrics.snapshot()
            assert snapshot["routes"][UNMATCHED]["count"] == 100
            assert snapshot["routes"]["GET /healthz"]["count"] == 1
            assert snapshot["requests_total"] == 301
            # The bounded flight ring keeps the raw path of a miss.
            newest_miss = service.flight.recent(limit=2)[1]
            assert newest_miss["route"] == "GET /jobs/{id}"
            assert newest_miss["path"].startswith("/jobs/")
        finally:
            service.close()
