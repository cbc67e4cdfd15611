"""Service-layer integration of the engine and the disk cache.

Drives :class:`ChopService.handle` directly (no socket) — the HTTP
plumbing has its own tests; here the interesting seams are the engine
gauges in ``/metrics``, per-shard job progress, the disk prediction
cache surviving across service instances, and structured 4xx detail for
combination explosions.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import session_to_dict
from repro.service import ChopService


@pytest.fixture(scope="module")
def project_doc():
    return session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )


@pytest.fixture(scope="module")
def big_project_doc():
    return session_to_dict(experiment2_session(partition_count=3))


def call(service, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    status, doc, _route, _headers = service.handle(method, path, body)
    return status, doc


def upload(service, doc):
    status, payload = call(service, "POST", "/projects", doc)
    assert status in (200, 201)
    return payload["project_id"]


class TestEngineWiring:
    def test_metrics_expose_engine_and_disk_cache(
        self, tmp_path, project_doc
    ):
        service = ChopService(
            workers=1, search_workers=2,
            disk_cache_dir=str(tmp_path / "cache"),
        )
        try:
            pid = upload(service, project_doc)
            status, _ = call(
                service, "POST", f"/projects/{pid}/check",
                {"heuristic": "enumeration"},
            )
            assert status == 200
            status, metrics = call(service, "GET", "/metrics")
            assert status == 200
            assert metrics["engine"]["workers"] == 2
            assert (
                metrics["engine"]["searches_parallel"]
                + metrics["engine"]["searches_serial"]
            ) >= 1
            assert metrics["disk_cache"]["stores"] == 1
            assert metrics["disk_cache"]["misses"] == 1
        finally:
            service.close()

    def test_no_engine_without_search_workers(self, project_doc):
        service = ChopService(workers=1)
        try:
            assert service.engine is None
            assert service.disk_cache is None
            _, metrics = call(service, "GET", "/metrics")
            assert "engine" not in metrics
            assert "disk_cache" not in metrics
        finally:
            service.close()

    def test_enumerate_job_reports_progress(self, big_project_doc):
        service = ChopService(workers=1, search_workers=2)
        try:
            pid = upload(service, big_project_doc)
            status, job_doc = call(
                service, "POST", f"/projects/{pid}/enumerate", {}
            )
            assert status == 202
            job = service.jobs.wait(job_doc["job_id"], timeout=120)
            assert job.state == "done"
            doc = job.to_dict()
            assert "progress" in doc
            assert (
                doc["progress"]["shards_done"]
                == doc["progress"]["shards_total"]
            )
        finally:
            service.close()


class TestDiskCacheAcrossRestarts:
    def test_second_instance_hits_the_shared_cache(
        self, tmp_path, project_doc
    ):
        cache_dir = str(tmp_path / "predictions")
        first = ChopService(workers=1, disk_cache_dir=cache_dir)
        try:
            pid = upload(first, project_doc)
            status, cold = call(
                first, "POST", f"/projects/{pid}/check", {}
            )
            assert status == 200
            assert first.disk_cache.stats()["misses"] == 1
            assert first.disk_cache.stats()["stores"] == 1
        finally:
            first.close()

        second = ChopService(workers=1, disk_cache_dir=cache_dir)
        try:
            pid = upload(second, project_doc)
            status, warm = call(
                second, "POST", f"/projects/{pid}/check", {}
            )
            assert status == 200
            stats = second.disk_cache.stats()
            assert stats["hits"] == 1
            assert stats["stores"] == 0
            warm_doc = dict(warm["result"])
            cold_doc = dict(cold["result"])
            warm_doc.pop("cpu_seconds", None)
            cold_doc.pop("cpu_seconds", None)
            assert warm_doc == cold_doc
        finally:
            second.close()

    def test_cli_and_service_share_one_entry(
        self, tmp_path, project_doc, capsys
    ):
        """One warm-up keyed one way: a document that omits a defaulted
        section is cached once, whichever caller computed it first."""
        doc = dict(project_doc)
        del doc["memories"]
        path = tmp_path / "project.json"
        path.write_text(json.dumps(doc))
        cache_dir = tmp_path / "predictions"
        assert cli_main(
            ["check", str(path), "--disk-cache", str(cache_dir)]
        ) == 0
        assert "disk cache: miss" in capsys.readouterr().out

        service = ChopService(workers=1, disk_cache_dir=str(cache_dir))
        try:
            pid = upload(service, doc)
            status, _ = call(service, "POST", f"/projects/{pid}/check", {})
            assert status == 200
            stats = service.disk_cache.stats()
            assert (stats["hits"], stats["misses"], stats["stores"]) == (
                1, 0, 0,
            )
        finally:
            service.close()
        assert len(list(cache_dir.glob("*.predictions.pkl"))) == 1


class TestCombinationExplosionDetail:
    def test_422_with_structured_detail(
        self, monkeypatch, big_project_doc
    ):
        import repro.search.enumeration as enumeration_module

        monkeypatch.setattr(enumeration_module, "MAX_COMBINATIONS", 10)
        service = ChopService(workers=1)
        try:
            pid = upload(service, big_project_doc)
            status, payload = call(
                service, "POST", f"/projects/{pid}/check",
                {"heuristic": "enumeration"},
            )
            assert status == 422
            assert payload["type"] == "CombinationExplosionError"
            detail = payload["detail"]
            assert detail["limit"] == 10
            assert detail["combinations"] > 10
            assert set(detail["list_sizes"]) == {"P1", "P2", "P3"}
        finally:
            service.close()
