"""Serving-layer throughput: cold/warm cache checks/sec + an RPS soak.

Not a paper table — this measures the subsystem the paper's
interactivity claim (sections 1 and 6) grows into: a designer session
re-checks near-identical partitionings, so the server memoizes verdicts
on the project fingerprint.  Three benches:

* cold vs warm check throughput (in-process dispatch, artifact
  ``service_throughput.txt``);
* a sustained-RPS soak over a real socket: concurrent clients hammer
  ``/healthz`` and warm ``/check`` for a fixed request budget, then the
  bench asserts the Prometheus exposition carries sane p95-latency and
  error-rate gauges and writes ``BENCH_service.json`` — the baseline
  ``benchmarks/check_bench_trajectory.py`` compares against in CI;
* the **distributed soak** (standalone ``main``, not pytest): a real
  single-node ``serve`` subprocess and a real ``--procs N`` fleet run
  the same project stream against one shared prediction-cache
  directory.  It asserts fleet verdicts byte-identical to single-node,
  warm cross-worker cache hits (the fleet loads entries another process
  wrote), a clean fleet SIGTERM drain, and — full mode, on a host with
  at least as many cores as fleet workers — a >= 2x RPS speedup at 4
  workers.  Writes ``BENCH_distributed.json``.

Run the distributed soak directly (no pytest needed)::

    python benchmarks/bench_service.py            # full, gated
    python benchmarks/bench_service.py --smoke    # CI mode
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"),
)

from repro.experiments import experiment1_session, experiment2_session
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


# ----------------------------------------------------------------------
# distributed soak: single node vs a --procs N fleet, one shared cache
# ----------------------------------------------------------------------
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLEET_PROCS = 4
RPS_SPEEDUP_GATE = 2.0


def _distributed_documents() -> List[dict]:
    """Four distinct projects whose fingerprints spread across workers."""
    return [
        session_to_dict(
            experiment1_session(package_number=2, partition_count=3)
        ),
        session_to_dict(experiment2_session(partition_count=4)),
        session_to_dict(
            experiment1_session(package_number=2, partition_count=2)
        ),
        session_to_dict(experiment2_session(partition_count=3)),
    ]


def _spawn_server(
    procs: int, cache_dir: str, drain_timeout: int = 10
) -> Tuple[subprocess.Popen, int]:
    """Boot ``repro.cli serve`` on an ephemeral port; returns the port.

    The banner doubles as the readiness signal: in fleet mode it is
    printed only after every worker's listeners are live.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--procs", str(procs), "--workers", "2",
            "--drain-timeout", str(drain_timeout),
            "--disk-cache", cache_dir,
            "--cache-backend", "shared",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    banner = proc.stdout.readline()
    if "serving on http://" not in banner:
        proc.kill()
        raise RuntimeError(f"server never announced: {banner!r}")
    port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
    return proc, port


def _shutdown(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=timeout)
    return proc.returncode


def _request(
    port: int, path: str, document: Optional[dict] = None, timeout=600
):
    data = (
        None if document is None
        else json.dumps(document).encode("utf-8")
    )
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _strip_timings(verdict: dict) -> dict:
    verdict.pop("cpu_seconds", None)
    if isinstance(verdict.get("result"), dict):
        verdict["result"].pop("cpu_seconds", None)
    return verdict


def _check_all(port: int, documents: List[dict]) -> Tuple[List, List]:
    """Upload every project and check it; returns (ids, verdicts)."""
    project_ids, verdicts = [], []
    for document in documents:
        created = _request(port, "/projects", document)
        project_ids.append(created["project_id"])
        verdict = _request(
            port, f"/projects/{created['project_id']}/check", {}
        )
        verdicts.append(_strip_timings(verdict))
    return project_ids, verdicts


_SOAK_CLIENT_SCRIPT = """
import json, sys, time, urllib.request

port = int(sys.argv[1])
requests_per_client = int(sys.argv[2])
index = int(sys.argv[3])
project_ids = sys.argv[4].split(",")

def hit(path, data=None, timeout=60):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        response.read()

started = time.perf_counter()
for i in range(requests_per_client):
    if i % 3 == 0:
        pid = project_ids[(index + i) % len(project_ids)]
        hit(f"/projects/{pid}/check", data=b"{}")
    else:
        hit("/healthz")
print(time.perf_counter() - started)
"""


def _soak_rps(
    port: int,
    project_ids: List[str],
    clients: int,
    requests_per_client: int,
) -> float:
    """Mixed warm traffic: 1/3 sticky checks, 2/3 local health reads.

    Each client is its own OS process: a threaded in-process load
    generator is itself GIL-bound around the single node's throughput
    ceiling, so it cannot tell a scaled fleet from a saturated single
    process.  Throughput is total requests over the slowest client's
    request-loop wall clock (interpreter startup excluded).
    """
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-c", _SOAK_CLIENT_SCRIPT,
                str(port), str(requests_per_client), str(index),
                ",".join(project_ids),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for index in range(clients)
    ]
    walls = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"soak client failed: {err.strip()}")
        walls.append(float(out.strip()))
    return clients * requests_per_client / max(walls)


def _cross_worker_hits(snapshot: dict) -> int:
    """Sum of remote shared-cache hits across the fleet's workers."""
    total = 0
    for worker_doc in snapshot.get("workers", {}).values():
        disk = worker_doc.get("disk_cache") or {}
        total += int(disk.get("hits_remote", 0) or 0)
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="single-node vs fleet distributed soak"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="identity/drain/cross-hit gates only, no RPS gate",
    )
    parser.add_argument(
        "--procs", type=int, default=FLEET_PROCS,
        help=f"fleet worker processes (default {FLEET_PROCS})",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="concurrent soak clients (default 8, or 4 with --smoke)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="requests per client (default 100, or 30 with --smoke)",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (4 if args.smoke else 8)
    requests_per_client = args.requests or (30 if args.smoke else 100)

    # The RPS gate measures parallel scaling, so it only binds when the
    # host can physically scale: procs workers need procs cores before
    # a 2x claim is meaningful.  Identity, cross-worker-hit and drain
    # gates are correctness and always bind.
    cores = os.cpu_count() or 1
    rps_gate_active = not args.smoke and cores >= args.procs

    import tempfile

    documents = _distributed_documents()
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="chop-dist-") as cache_dir:
        # Phase 1 — single node.  Seeds the shared cache directory:
        # every prediction entry it stores carries *its* writer id, so
        # phase-2 loads count as remote (cross-worker) hits.
        proc, port = _spawn_server(procs=1, cache_dir=cache_dir)
        try:
            single_ids, single_verdicts = _check_all(port, documents)
            rps_single = _soak_rps(
                port, single_ids, clients, requests_per_client
            )
        finally:
            rc_single = _shutdown(proc)
        if rc_single != 0:
            failures.append(f"single-node drain exited {rc_single}")

        # Phase 2 — the fleet, same cache directory, same stream.
        proc, port = _spawn_server(procs=args.procs, cache_dir=cache_dir)
        try:
            fleet_ids, fleet_verdicts = _check_all(port, documents)
            rps_fleet = _soak_rps(
                port, fleet_ids, clients, requests_per_client
            )
            snapshot = _request(port, "/metrics")
            cross_hits = _cross_worker_hits(snapshot)
            fleet_block = snapshot.get("fleet", {})
        finally:
            rc_fleet = _shutdown(proc)
        if rc_fleet != 0:
            failures.append(f"fleet drain exited {rc_fleet}")

    if fleet_ids != single_ids:
        failures.append(
            f"project ids diverged: {single_ids} vs {fleet_ids}"
        )
    identity_ok = fleet_verdicts == single_verdicts
    if not identity_ok:
        failures.append("fleet verdicts differ from single node")
    cross_ok = cross_hits > 0
    if not cross_ok:
        failures.append("no cross-worker shared-cache hits observed")
    drain_ok = rc_single == 0 and rc_fleet == 0
    speedup = rps_fleet / rps_single if rps_single > 0 else 0.0
    if rps_gate_active and speedup < RPS_SPEEDUP_GATE:
        failures.append(
            f"expected >= {RPS_SPEEDUP_GATE}x fleet RPS on "
            f"{cores} cores, measured {speedup:.2f}x"
        )
    gates_ok = not failures

    lines = [
        f"Distributed soak — {len(documents)} projects, "
        f"{clients} clients x {requests_per_client} requests, "
        f"{args.procs}-worker fleet vs single node, one shared "
        f"prediction cache:",
        "",
        f"  single node : {rps_single:10.1f} req/s (drain rc "
        f"{rc_single})",
        f"  fleet       : {rps_fleet:10.1f} req/s (drain rc "
        f"{rc_fleet}, {fleet_block.get('workers')} workers, "
        f"{fleet_block.get('forwarded')} forwarded)",
        f"  speedup     : {speedup:10.2f} x  (RPS gate "
        + (
            "enforced"
            if rps_gate_active
            else f"skipped: {cores} core(s) for {args.procs} workers"
            if not args.smoke
            else "skipped: smoke mode"
        )
        + ")",
        "",
        f"  verdict identity  : "
        f"{'byte-identical' if identity_ok else 'DIVERGED'}",
        f"  cross-worker hits : {cross_hits}",
        "  gates             : "
        + ("ok" if gates_ok else "FAILED: " + "; ".join(failures)),
    ]
    table = "\n".join(lines)
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    text_path = os.path.join(RESULTS_DIR, "distributed_soak.txt")
    with open(text_path, "w") as handle:
        handle.write(table + "\n")
    print(f"\nwrote {text_path}")

    json_doc = {
        "bench": "distributed_soak",
        "smoke": bool(args.smoke),
        "procs": args.procs,
        "projects": len(documents),
        "clients": clients,
        "requests_per_client": requests_per_client,
        "cores": cores,
        "rps_single": round(rps_single, 1),
        "rps_fleet": round(rps_fleet, 1),
        "speedup": round(speedup, 3),
        "rps_gate_enforced": rps_gate_active,
        "identity_ok": identity_ok,
        "cross_worker_hits": cross_hits,
        "cross_worker_hits_ok": cross_ok,
        "drain_ok": drain_ok,
        "forwarded": fleet_block.get("forwarded"),
        "gates_ok": gates_ok,
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_distributed.json")
    with open(json_path, "w") as handle:
        json.dump(json_doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")

    return 0 if gates_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
