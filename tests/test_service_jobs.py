"""Tests for the background job queue and cooperative cancellation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import SearchCancelled
from repro.experiments import experiment1_session
from repro.service import ChopService, jobs as jobs_module
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobQueue,
    QUEUED,
)


@pytest.fixture()
def queue():
    q = JobQueue(workers=1, default_timeout_s=30.0)
    yield q
    q.shutdown()


def _cooperative(job):
    """A job that politely polls its hook, like the search heuristics."""
    for _ in range(1000):
        if job.should_stop():
            raise SearchCancelled("stopped by hook")
        time.sleep(0.005)
    return "ran to completion"


class TestJobQueue:
    def test_success_lifecycle(self, queue):
        job = queue.submit(lambda job: 42, kind="answer")
        finished = queue.wait(job.id)
        assert finished.state == DONE
        assert finished.result == 42
        doc = finished.to_dict()
        assert doc["kind"] == "answer"
        assert doc["result"] == 42
        assert doc["started_at"] >= doc["submitted_at"]

    def test_failure_captures_error(self, queue):
        def boom(job):
            raise ValueError("bad input")

        job = queue.submit(boom)
        finished = queue.wait(job.id)
        assert finished.state == FAILED
        assert "ValueError: bad input" in finished.error
        assert "result" not in finished.to_dict()

    def test_wall_clock_timeout(self, queue):
        job = queue.submit(_cooperative, timeout_s=0.05)
        finished = queue.wait(job.id)
        assert finished.state == FAILED
        assert "timed out after 0.05 s" in finished.error

    def test_cancel_running_job(self, queue):
        job = queue.submit(_cooperative, timeout_s=30.0)
        # Wait until it is actually running, then cancel.
        deadline = time.monotonic() + 5
        while job.state == QUEUED and time.monotonic() < deadline:
            time.sleep(0.005)
        queue.cancel(job.id)
        finished = queue.wait(job.id)
        assert finished.state == CANCELLED
        assert "cancelled" in finished.error

    def test_cancel_queued_job_never_starts(self, queue):
        release = threading.Event()

        def blocker(job):
            release.wait(10)
            return "done"

        first = queue.submit(blocker)
        second = queue.submit(lambda job: "should not run")
        assert second.state == QUEUED
        queue.cancel(second.id)
        release.set()
        finished = queue.wait(second.id)
        assert finished.state == CANCELLED
        assert second.started_at is None
        assert queue.wait(first.id).state == DONE

    def test_zero_timeout_means_no_deadline(self, queue):
        job = queue.submit(lambda job: job.should_stop(), timeout_s=0)
        finished = queue.wait(job.id)
        assert finished.state == DONE
        assert finished.result is False  # hook never fires
        assert finished.timeout_s is None

    def test_depth_gauges(self, queue):
        release = threading.Event()

        def blocker(job):
            release.wait(10)

        running = queue.submit(blocker)
        queued = queue.submit(lambda job: None)
        deadline = time.monotonic() + 5
        while running.state == QUEUED and time.monotonic() < deadline:
            time.sleep(0.005)
        depth = queue.depth()
        assert depth["running"] == 1
        assert depth["queued"] == 1
        assert depth["total"] == 2
        release.set()
        queue.wait(queued.id)

    def test_unknown_job(self, queue):
        assert queue.get("job-999") is None
        assert queue.cancel("job-999") is None


class TestJobRetention:
    # ``raising=False`` lets a queue without the bound run the tests and
    # fail on behaviour, not on the missing constant.

    def test_oldest_finished_records_expire(self, monkeypatch):
        monkeypatch.setattr(
            jobs_module, "MAX_FINISHED_JOBS", 2, raising=False
        )
        queue = JobQueue(workers=2, default_timeout_s=30.0)
        release = threading.Event()
        try:
            running = queue.submit(lambda job: release.wait(10))
            quick = [queue.submit(lambda job: "quick") for _ in range(4)]
            # One free worker runs them in order: the last done means
            # all done (the earlier ids may have expired already).
            queue.wait(quick[-1].id)
            # The oldest finished records are gone; the running job and
            # the two newest finished ones stay.
            assert [queue.get(job.id) for job in quick[:2]] == [None, None]
            assert queue.cancel(quick[0].id) is None
            assert [queue.get(job.id) for job in quick[2:]] == quick[2:]
            assert queue.get(running.id) is running
            assert queue.depth()["total"] == 3
            release.set()
            assert queue.wait(running.id).state == DONE
            assert queue.get(quick[2].id) is None
            assert queue.depth()["total"] == 2
        finally:
            release.set()
            queue.shutdown()

    def test_waiting_on_an_expired_id_raises_at_once(self, monkeypatch):
        monkeypatch.setattr(
            jobs_module, "MAX_FINISHED_JOBS", 2, raising=False
        )
        queue = JobQueue(workers=1, default_timeout_s=30.0)
        try:
            quick = [queue.submit(lambda job: "quick") for _ in range(4)]
            queue.wait(quick[-1].id)
            started = time.monotonic()
            with pytest.raises(KeyError):
                queue.wait(quick[0].id, timeout=5.0)
            assert time.monotonic() - started < 1.0
            with pytest.raises(KeyError):
                queue.wait("job-never-issued", timeout=5.0)
        finally:
            queue.shutdown()

    def test_expired_job_routes_answer_404(self, monkeypatch):
        monkeypatch.setattr(
            jobs_module, "MAX_FINISHED_JOBS", 1, raising=False
        )
        service = ChopService(workers=1)
        try:
            expired = service.jobs.submit(lambda job: 1)
            service.jobs.wait(expired.id)
            kept = service.jobs.submit(lambda job: 2)
            service.jobs.wait(kept.id)
            for method, suffix in (
                ("GET", ""),
                ("POST", "/cancel"),
                ("GET", "/trace"),
                ("GET", "/explain"),
            ):
                status, payload, _route, _headers = service.handle(
                    method, f"/jobs/{expired.id}{suffix}", None
                )
                assert status == 404
                assert payload["error"] == f"unknown job {expired.id!r}"
            status, payload, _route, _headers = service.handle(
                "GET", f"/jobs/{kept.id}", None
            )
            assert status == 200 and payload["result"] == 2
        finally:
            service.close()


class TestSearchCancellationHook:
    """The hook threads all the way into the heuristics."""

    def test_enumeration_cancels_immediately(self):
        session = experiment1_session(
            package_number=2, partition_count=2
        )
        with pytest.raises(SearchCancelled):
            session.check(heuristic="enumeration", cancel=lambda: True)

    def test_iterative_cancels_immediately(self):
        session = experiment1_session(
            package_number=2, partition_count=2
        )
        with pytest.raises(SearchCancelled):
            session.check(heuristic="iterative", cancel=lambda: True)

    def test_no_cancel_still_completes(self):
        session = experiment1_session(
            package_number=2, partition_count=2
        )
        result = session.check(
            heuristic="enumeration", cancel=lambda: False
        )
        assert result.feasible
