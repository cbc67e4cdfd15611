"""Admission-control tests: queue caps, session quotas, body caps.

The failure-mode contract (docs/resilience.md): a full queue or a
session over quota answers 429 with a concrete ``Retry-After`` header,
an oversized body answers 413 without being buffered, and rejected work
leaves no residue in the job registry.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import QueueFullError
from repro.experiments import experiment1_session
from repro.io.project import session_to_dict
from repro.service import ChopService, make_server
from repro.service.jobs import JobQueue


@pytest.fixture(scope="module")
def project_doc():
    return session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )


def handle(service, method, path, payload=None, body=None):
    if body is None and payload is not None:
        body = json.dumps(payload).encode()
    return service.handle(method, path, body)


def upload(service, doc):
    status, payload, _route, _hdrs = handle(
        service, "POST", "/projects", doc
    )
    assert status in (200, 201)
    return payload["project_id"]


class _Gate:
    """Jobs that block until released, to hold queue slots open."""

    def __init__(self):
        self.release = threading.Event()
        self.running = threading.Event()

    def job(self, _job):
        self.running.set()
        self.release.wait(timeout=30)
        return "done"


# ----------------------------------------------------------------------
# queue depth cap
# ----------------------------------------------------------------------
class TestQueueCap:
    def test_submit_over_cap_raises_with_retry_after(self):
        gate = _Gate()
        queue = JobQueue(workers=1, max_queued=2)
        try:
            queue.submit(gate.job)  # occupies the worker
            gate.running.wait(timeout=10)
            queue.submit(gate.job)  # queued 1
            queue.submit(gate.job)  # queued 2 == cap
            with pytest.raises(QueueFullError) as excinfo:
                queue.submit(gate.job)
            assert excinfo.value.retry_after_s >= 1.0
            # Rejected work left nothing behind.
            assert queue.depth()["queued"] == 2
        finally:
            gate.release.set()
            queue.shutdown()

    def test_http_mapping_is_429_with_retry_after(self, project_doc):
        service = ChopService(workers=1, max_queued=1)
        gate = _Gate()
        try:
            pid = upload(service, project_doc)
            service.jobs.submit(gate.job)  # occupy the one worker
            gate.running.wait(timeout=10)
            service.jobs.submit(gate.job)  # fill the queue to its cap
            status, payload, _route, headers = handle(
                service, "POST", f"/projects/{pid}/enumerate", {}
            )
            assert status == 429
            assert payload["type"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
        finally:
            gate.release.set()
            service.close()


# ----------------------------------------------------------------------
# per-session quota
# ----------------------------------------------------------------------
class TestSessionQuota:
    def test_one_tenant_cannot_hog_the_queue(self):
        gate = _Gate()
        queue = JobQueue(workers=1, max_per_session=2)
        try:
            queue.submit(gate.job, session_key="alice")
            gate.running.wait(timeout=10)
            queue.submit(gate.job, session_key="alice")
            with pytest.raises(QueueFullError):
                queue.submit(gate.job, session_key="alice")
            # A different tenant is still admitted.
            queue.submit(gate.job, session_key="bob")
        finally:
            gate.release.set()
            queue.shutdown()

    def test_enumerate_is_scoped_by_project(self, project_doc):
        service = ChopService(
            workers=1, max_jobs_per_session=1, job_timeout_s=60.0
        )
        gate = _Gate()
        try:
            pid = upload(service, project_doc)
            # Hold the worker so the project's first job stays active.
            service.jobs.submit(gate.job)
            gate.running.wait(timeout=10)
            status, _payload, _route, _hdrs = handle(
                service, "POST", f"/projects/{pid}/enumerate", {}
            )
            assert status == 202
            status, payload, _route, headers = handle(
                service, "POST", f"/projects/{pid}/enumerate", {}
            )
            assert status == 429
            assert "Retry-After" in headers
        finally:
            gate.release.set()
            service.close()


# ----------------------------------------------------------------------
# body size cap
# ----------------------------------------------------------------------
class TestBodyCap:
    def test_oversized_body_is_413(self):
        service = ChopService(workers=1, max_body_bytes=100)
        try:
            status, payload, _route, _hdrs = handle(
                service, "POST", "/projects", body=b"x" * 101
            )
            assert status == 413
            assert payload["type"] == "body_too_large"
        finally:
            service.close()

    def test_body_at_cap_is_processed(self):
        service = ChopService(workers=1, max_body_bytes=6)
        try:
            # 6 bytes of invalid JSON: passes the cap, fails parsing.
            status, _payload, _route, _hdrs = handle(
                service, "POST", "/projects", body=b"{nope}"
            )
            assert status == 400
        finally:
            service.close()

    def test_socket_rejects_from_content_length_alone(self):
        service = ChopService(workers=1, max_body_bytes=64)
        httpd = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        port = httpd.server_address[1]
        try:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/projects",
                data=b"y" * 1000,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=10)
            assert excinfo.value.code == 413
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()

    def test_constructor_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ChopService(workers=1, max_body_bytes=0)
