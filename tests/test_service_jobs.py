"""Tests for the background job queue and cooperative cancellation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import SearchCancelled
from repro.experiments import experiment1_session
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
