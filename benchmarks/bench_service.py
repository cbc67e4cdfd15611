"""Serving-layer throughput: cold/warm cache checks/sec + an RPS soak.

Not a paper table — this measures the subsystem the paper's
interactivity claim (sections 1 and 6) grows into: a designer session
re-checks near-identical partitionings, so the server memoizes verdicts
on the project fingerprint.  Two benches:

* cold vs warm check throughput (in-process dispatch, artifact
  ``service_throughput.txt``);
* a sustained-RPS soak over a real socket: concurrent clients hammer
  ``/healthz`` and warm ``/check`` for a fixed request budget, then the
  bench asserts the Prometheus exposition carries sane p95-latency and
  error-rate gauges and writes ``BENCH_service.json`` — the baseline
  ``benchmarks/check_bench_trajectory.py`` compares against in CI.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import urllib.request

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"),
)

from repro.experiments import experiment1_session
from repro.io.project import session_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.service import ChopService, make_server

WARM_REQUESTS = 200

SOAK_CLIENTS = 4
SOAK_REQUESTS_PER_CLIENT = 75


def _check(service, entry) -> dict:
    """One iterative check through the service's dispatcher."""
    status, payload, _route, _headers = service.handle(
        "POST",
        f"/projects/{entry.project_id}/check",
        b'{"heuristic": "iterative"}',
    )
    assert status == 200, payload
    return payload


def _cold_check_seconds(doc) -> float:
    service = ChopService(workers=1)
    entry, _ = service.sessions.put(doc)
    started = time.perf_counter()
    _check(service, entry)
    elapsed = time.perf_counter() - started
    service.close()
    return elapsed


def _warm_checks_per_second(doc) -> tuple:
    service = ChopService(workers=1)
    entry, _ = service.sessions.put(doc)
    first = _check(service, entry)
    assert first["cache_hit"] is False
    started = time.perf_counter()
    for _ in range(WARM_REQUESTS):
        response = _check(service, entry)
        assert response["cache_hit"] is True
    elapsed = time.perf_counter() - started
    stats = service.cache.stats()
    service.close()
    return WARM_REQUESTS / elapsed, stats


def test_service_cold_vs_warm_throughput(benchmark, save_artifact):
    doc = session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )
    measurements = {}

    def run():
        cold_s = _cold_check_seconds(doc)
        warm_rate, stats = _warm_checks_per_second(doc)
        measurements.update(
            cold_s=cold_s, warm_rate=warm_rate, stats=stats
        )
        return measurements

    benchmark.pedantic(run, rounds=1, iterations=1)

    cold_rate = 1.0 / measurements["cold_s"]
    warm_rate = measurements["warm_rate"]
    stats = measurements["stats"]
    lines = [
        "Serving-layer check throughput (experiment 1, 2 partitions,",
        "iterative heuristic, one process, in-process dispatch):",
        "",
        f"  cold cache : {cold_rate:10.1f} checks/sec "
        f"({measurements['cold_s'] * 1000:.1f} ms/check)",
        f"  warm cache : {warm_rate:10.1f} checks/sec "
        f"(over {WARM_REQUESTS} requests)",
        f"  speedup    : {warm_rate / cold_rate:10.1f}x",
        "",
        f"  cache hits {stats['hits']}, misses {stats['misses']}, "
        f"hit rate {stats['hit_rate']:.3f}",
    ]
    save_artifact("service_throughput.txt", "\n".join(lines))

    # The whole point of the cache: warm must beat cold clearly.
    assert warm_rate > cold_rate * 2
    assert stats["misses"] == 1
    assert stats["hits"] == WARM_REQUESTS


def _get(port: int, path: str) -> tuple:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as resp:
        return resp.status, resp.read().decode()


def test_service_soak_rps_and_slo_gauges(benchmark, save_artifact):
    """Sustained-RPS soak smoke over a real socket.

    Asserts the scrape-side contract the dashboards depend on: after
    load, the Prometheus exposition carries the request-latency
    histogram with a finite bucket-derived p95 and the SLO burn gauges,
    and the error-rate objective reads zero for an all-2xx soak.
    """
    doc = session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )
    registry = MetricsRegistry()  # isolated from other benches
    service = ChopService(workers=1, registry=registry)
    httpd = make_server(service, "127.0.0.1", 0)
    port = httpd.server_address[1]
    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    measurements = {}
    try:
        body = json.dumps(doc).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/projects",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            pid = json.loads(resp.read())["project_id"]
        # Warm the check cache so the soak measures serving overhead,
        # not BAD prediction.
        check = urllib.request.Request(
            f"http://127.0.0.1:{port}/projects/{pid}/check",
            data=b"{}",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(check, timeout=120) as resp:
            resp.read()

        errors = []

        def client(index: int) -> None:
            try:
                for i in range(SOAK_REQUESTS_PER_CLIENT):
                    if i % 3 == 0:
                        with urllib.request.urlopen(
                            urllib.request.Request(
                                f"http://127.0.0.1:{port}/projects/"
                                f"{pid}/check",
                                data=b"{}",
                                method="POST",
                            ),
                            timeout=60,
                        ) as resp:
                            resp.read()
                    else:
                        _get(port, "/healthz")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def soak():
            started = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(SOAK_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            measurements["wall_s"] = time.perf_counter() - started
            return measurements

        benchmark.pedantic(soak, rounds=1, iterations=1)
        assert not errors

        total = SOAK_CLIENTS * SOAK_REQUESTS_PER_CLIENT
        rps = total / measurements["wall_s"]
        histogram = service.metrics.latency_histogram
        p50 = histogram.quantile(0.5)
        p95 = histogram.quantile(0.95)
        slo = service.slo.evaluate()
        error_doc = next(
            o
            for o in slo["objectives"]
            if o["kind"] == "error_rate"
        )

        status, text = _get(port, "/metrics?format=prometheus")
        assert status == 200
        # The gauges dashboards alert on must be present and sane.
        assert "# TYPE chop_request_latency_seconds histogram" in text
        assert 'chop_slo_burn_ratio{slo="latency_p95"}' in text
        assert 'chop_slo_ok{slo="error_rate"} 1' in text
        assert p95 is not None and 0 < p95 < 60
        assert p50 is not None and p50 <= p95
        assert error_doc["measured_ratio"] in (None, 0.0)

        payload = {
            "bench": "service_soak",
            "clients": SOAK_CLIENTS,
            "requests": total,
            "rps": round(rps, 1),
            "p50_ms": round(p50 * 1000, 3),
            "p95_ms": round(p95 * 1000, 3),
            "error_rate": error_doc["measured_ratio"] or 0.0,
            "slo_ok": bool(slo["ok"]),
            "gates_ok": True,
        }
        save_artifact(
            "BENCH_service.json", json.dumps(payload, indent=2)
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        serving.join(5)
