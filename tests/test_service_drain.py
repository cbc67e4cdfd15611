"""Graceful-drain tests: readiness, shutdown semantics, SIGTERM.

The drain lifecycle (docs/resilience.md): admissions stop immediately
(``/readyz`` flips to 503, new ``POST`` s are refused), running jobs get
up to the drain timeout to finish, stragglers are cancelled
cooperatively, and every job a client might poll reaches a terminal
state — nobody waits forever on a job the executor silently dropped.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import DrainingError
from repro.experiments import experiment1_session
from repro.io.project import session_to_dict
from repro.service import ChopService
from repro.service.jobs import CANCELLED, DONE, JobQueue


@pytest.fixture(scope="module")
def project_doc():
    return session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )


def handle(service, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    return service.handle(method, path, body)


class _Gate:
    def __init__(self):
        self.release = threading.Event()
        self.running = threading.Event()

    def job(self, _job):
        self.running.set()
        self.release.wait(timeout=30)
        return "done"

    def cooperative_job(self, job):
        self.running.set()
        while not job.should_stop():
            time.sleep(0.01)
        return "stopped"


# ----------------------------------------------------------------------
# the shutdown bugfix: queued jobs must reach a terminal state
# ----------------------------------------------------------------------
class TestShutdownMarksQueuedJobs:
    def test_queued_jobs_are_cancelled_not_orphaned(self):
        gate = _Gate()
        queue = JobQueue(workers=1)
        queue.submit(gate.job)
        gate.running.wait(timeout=10)
        queued = [queue.submit(gate.job) for _ in range(3)]
        gate.release.set()
        queue.shutdown()
        # Before the fix, cancel_futures=True dropped the queued
        # futures without ever running _run, so these jobs stayed
        # "queued" forever and a polling client would never return.
        for job in queued:
            final = queue.wait(job.id, timeout=5)
            assert final.state == CANCELLED
            assert final.finished_at is not None
            assert "shut down" in (final.error or "")

    def test_shutdown_closes_admissions(self):
        queue = JobQueue(workers=1)
        queue.shutdown()
        with pytest.raises(DrainingError):
            queue.submit(lambda job: None)


# ----------------------------------------------------------------------
# drain semantics
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_waits_for_running_jobs(self):
        gate = _Gate()
        queue = JobQueue(workers=1)
        job = queue.submit(gate.job)
        gate.running.wait(timeout=10)

        def release_soon():
            time.sleep(0.1)
            gate.release.set()

        threading.Thread(target=release_soon, daemon=True).start()
        outcome = queue.drain(timeout_s=10.0)
        assert outcome["drained"] is True
        assert outcome["forced"] == 0
        assert queue.get(job.id).state == DONE

    def test_drain_timeout_cancels_cooperatively(self):
        gate = _Gate()
        queue = JobQueue(workers=1)
        job = queue.submit(gate.cooperative_job)
        gate.running.wait(timeout=10)
        outcome = queue.drain(timeout_s=0.05, grace_s=5.0)
        # The job ignored the deadline but honoured its cancel hook.
        assert outcome["drained"] is False
        assert outcome["forced"] == 1
        final = queue.get(job.id)
        assert final.state in (DONE, CANCELLED)

    def test_drained_queue_refuses_submissions(self):
        queue = JobQueue(workers=1)
        queue.drain(timeout_s=0.1)
        with pytest.raises(DrainingError):
            queue.submit(lambda job: None)


# ----------------------------------------------------------------------
# service-level readiness and drain
# ----------------------------------------------------------------------
class TestReadiness:
    def test_healthz_vs_readyz_semantics(self, project_doc):
        service = ChopService(workers=1)
        try:
            # Healthy: both answer 200.
            status, payload, _r, _h = handle(service, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            status, payload, _r, _h = handle(service, "GET", "/readyz")
            assert status == 200 and payload["status"] == "ready"

            service.drain(timeout_s=0.1)
            # Draining: liveness still 200 (don't kill the process,
            # it's finishing work), readiness 503 (route traffic away).
            status, _payload, _r, _h = handle(service, "GET", "/healthz")
            assert status == 200
            status, payload, _r, _h = handle(service, "GET", "/readyz")
            assert status == 503
            assert payload["status"] == "draining"
        finally:
            service.close()

    def test_draining_service_refuses_new_work_with_retry_after(
        self, project_doc
    ):
        service = ChopService(workers=1, drain_timeout_s=7.0)
        try:
            status, payload, _r, _h = handle(
                service, "POST", "/projects", project_doc
            )
            pid = payload["project_id"]
            service.drain(timeout_s=0.1)
            for path in (
                "/projects",
                f"/projects/{pid}/check",
                f"/projects/{pid}/enumerate",
            ):
                status, payload, _route, headers = handle(
                    service, "POST", path, {}
                )
                assert status == 503, path
                assert payload["type"] == "draining"
                assert headers["Retry-After"] == "7"
            # Reads and job routes stay available during the drain.
            status, _payload, _r, _h = handle(
                service, "GET", f"/projects/{pid}"
            )
            assert status == 200
            status, _payload, _r, _h = handle(
                service, "POST", "/jobs/job-999/cancel"
            )
            assert status == 404  # routed, not refused
        finally:
            service.close()

    def test_drain_completes_inflight_job(self, project_doc):
        service = ChopService(workers=1, job_timeout_s=60.0)
        gate = _Gate()
        try:
            job = service.jobs.submit(gate.job)
            gate.running.wait(timeout=10)
            threading.Timer(0.1, gate.release.set).start()
            outcome = service.drain(timeout_s=10.0)
            assert outcome["drained"] is True
            assert service.jobs.get(job.id).state == DONE
        finally:
            gate.release.set()
            service.close()


# ----------------------------------------------------------------------
# SIGTERM end to end
# ----------------------------------------------------------------------
class TestSigterm:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM") or os.name == "nt",
        reason="POSIX signal delivery required",
    )
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "1",
                "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner
            port = int(
                banner.split("http://127.0.0.1:")[1].split(" ")[0].strip()
            )

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/readyz", timeout=10
            ) as resp:
                assert resp.status == 200

            proc.send_signal(signal.SIGTERM)

            # During the drain window the server still answers; /readyz
            # flips to 503 (or the socket is already closed if the empty
            # drain finished between the signal and our probe).
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/readyz", timeout=5
                )
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
            except (urllib.error.URLError, ConnectionError, OSError):
                pass

            output, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "draining" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
