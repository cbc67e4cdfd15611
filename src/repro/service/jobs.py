"""In-process job queue for long-running searches.

Design-space enumerations can dwarf the interactive feasibility checks
(the paper measured 61.4 s unpruned vs sub-second pruned, section 3.1),
so the serving layer runs them on a worker pool off the request thread:
``POST .../enumerate`` submits a job and returns immediately; the client
polls ``GET /jobs/{id}``.

Jobs move ``queued -> running -> done | failed | cancelled``.  Timeouts
and cancellation are *cooperative*: the job function receives its
:class:`Job`, whose ``should_stop()`` is wired into the search
heuristics' cancellation hooks (see
:meth:`repro.core.chop.ChopSession.check`) and starts returning ``True``
once the job is cancelled or its wall-clock budget is spent.  A queued
job that is cancelled never starts.

Resilience (see ``docs/resilience.md``):

* **admission control** — ``max_queued`` bounds the backlog
  (:class:`~repro.errors.QueueFullError` → HTTP 429 + ``Retry-After``)
  and ``max_per_session`` bounds one tenant's concurrent jobs;
* **drain** — :meth:`JobQueue.drain` closes admissions
  (:class:`~repro.errors.DrainingError` → HTTP 503), waits for in-flight
  jobs up to a timeout, then cancels the stragglers cooperatively.

Finished records expire: the queue keeps at most
:data:`MAX_FINISHED_JOBS` of them and drops the oldest finished first,
so a long-lived server holds the results of recent jobs only.  Queued
and running jobs are never dropped.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import DrainingError, QueueFullError, SearchCancelled

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL = (DONE, FAILED, CANCELLED)

#: Finished job records kept; past it the oldest finished one is dropped
#: and its id answers 404 like one never issued.
MAX_FINISHED_JOBS = 256


@dataclass
class Job:
    """One unit of background work and its lifecycle record."""

    id: str
    kind: str
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    timeout_s: Optional[float] = None
    result: Any = None
    error: Optional[str] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    progress: Optional[Dict[str, int]] = None
    #: Trace id of the tracer following this job (traced jobs only).
    trace_id: Optional[str] = None
    #: Observability artifacts captured by the job function — finished
    #: span records under ``"trace"``, the explain document under
    #: ``"explain"``.  Written once, after the run; served by
    #: ``GET /jobs/{id}/trace`` and ``GET /jobs/{id}/explain``.
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Admission-control scope (the project id for enumerations); jobs
    #: sharing a key count against ``max_per_session`` together.
    session_key: Optional[str] = None
    _deadline: Optional[float] = None

    def should_stop(self) -> bool:
        """The cooperative hook handed to the job function."""
        if self.cancel_event.is_set():
            return True
        return self._deadline is not None and time.monotonic() > self._deadline

    def report_progress(self, done: int, total: int) -> None:
        """Per-shard progress hook handed to engine-backed searches.

        Replaces the whole dict in one assignment so concurrent
        ``to_dict`` readers always see a consistent pair.
        """
        self.progress = {"shards_done": done, "shards_total": total}

    def to_dict(self) -> Dict[str, Any]:
        """The ``GET /jobs/{id}`` payload."""
        doc: Dict[str, Any] = {
            "job_id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "timeout_s": self.timeout_s,
        }
        if self.progress is not None:
            doc["progress"] = self.progress
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.state == DONE:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobQueue:
    """A bounded worker pool with per-job timeout and cancellation."""

    def __init__(
        self,
        workers: int = 2,
        default_timeout_s: Optional[float] = 300.0,
        max_queued: Optional[int] = None,
        max_per_session: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_queued is not None and max_queued < 1:
            raise ValueError(
                f"max_queued must be >= 1 (or None), got {max_queued}"
            )
        if max_per_session is not None and max_per_session < 1:
            raise ValueError(
                f"max_per_session must be >= 1 (or None), "
                f"got {max_per_session}"
            )
        self.workers = workers
        self.default_timeout_s = default_timeout_s
        self.max_queued = max_queued
        self.max_per_session = max_per_session
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="chop-job"
        )
        self._lock = threading.Lock()
        # Notified by every _finish: wait() and drain() sleep on it.
        self._finished_cond = threading.Condition(self._lock)
        # Queued and running jobs, and finished ones in finishing order.
        self._live: Dict[str, Job] = {}
        self._finished: "OrderedDict[str, Job]" = OrderedDict()
        self._counter = 0
        self._draining = False
        self._rejected_queue_full = 0
        self._rejected_session_quota = 0

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # submission and execution
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[Job], Any],
        kind: str = "job",
        timeout_s: Optional[float] = None,
        session_key: Optional[str] = None,
    ) -> Job:
        """Queue ``fn(job)``; returns the job record immediately.

        ``timeout_s=None`` uses the queue default; pass ``0`` (or any
        non-positive value) for no timeout.  The function polls
        :meth:`Job.should_stop` for cooperative cancellation and may
        wire :meth:`Job.report_progress` into per-shard callbacks.

        Raises :class:`~repro.errors.DrainingError` once the queue is
        draining, and :class:`~repro.errors.QueueFullError` when the
        backlog cap or the ``session_key``'s concurrent-job quota is
        hit — both *before* the job exists, so rejected work leaves no
        registry residue.
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        if timeout_s is not None and timeout_s <= 0:
            timeout_s = None
        with self._lock:
            if self._draining:
                raise DrainingError(
                    "job queue is draining; no new work is admitted"
                )
            queued = sum(
                1 for j in self._live.values() if j.state == QUEUED
            )
            if self.max_queued is not None and queued >= self.max_queued:
                self._rejected_queue_full += 1
                raise QueueFullError(
                    f"job queue is full ({queued} queued, cap "
                    f"{self.max_queued}); retry later",
                    retry_after_s=1.0 + queued,
                )
            if self.max_per_session is not None and session_key:
                active = sum(
                    1
                    for j in self._live.values()
                    if j.session_key == session_key
                )
                if active >= self.max_per_session:
                    self._rejected_session_quota += 1
                    raise QueueFullError(
                        f"session {session_key!r} already has {active} "
                        f"active jobs (cap {self.max_per_session}); "
                        f"wait for one to finish",
                        retry_after_s=2.0,
                    )
            self._counter += 1
            job = Job(
                id=f"job-{self._counter}",
                kind=kind,
                timeout_s=timeout_s,
                session_key=session_key,
            )
            self._live[job.id] = job
        self._executor.submit(self._run, job, fn)
        return job

    def _finish(
        self, job: Job, state: str, error: Optional[str] = None
    ) -> None:
        """Move ``job`` to a terminal ``state`` (caller holds the lock)."""
        job.state = state
        job.finished_at = time.time()
        job.error = error
        del self._live[job.id]
        self._finished[job.id] = job
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._finished.popitem(last=False)
        self._finished_cond.notify_all()

    def _run(self, job: Job, fn: Callable[[Job], Any]) -> None:
        with self._lock:
            if job.state == CANCELLED:
                return  # shut down before this thread picked it up
            if job.cancel_event.is_set():
                self._finish(job, CANCELLED, "cancelled before start")
                return
            job.state = RUNNING
            job.started_at = time.time()
            if job.timeout_s is not None:
                job._deadline = time.monotonic() + job.timeout_s
        try:
            result = fn(job)
        except SearchCancelled as exc:
            with self._lock:
                if job.cancel_event.is_set():
                    self._finish(job, CANCELLED, f"cancelled: {exc}")
                elif job.timeout_s is not None:
                    self._finish(
                        job, FAILED,
                        f"timed out after {job.timeout_s:g} s: {exc}",
                    )
                else:
                    self._finish(job, FAILED, f"SearchCancelled: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 — job boundary
            with self._lock:
                self._finish(job, FAILED, f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            job.result = result
            self._finish(job, DONE)

    # ------------------------------------------------------------------
    # lifecycle queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job's record; ``None`` for an unknown or expired id."""
        with self._lock:
            return self._live.get(job_id) or self._finished.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; running jobs stop at the next hook poll."""
        job = self.get(job_id)
        if job is not None:
            job.cancel_event.set()
        return job

    def depth(self) -> Dict[str, Any]:
        """Queue-depth gauges for ``/metrics``."""
        with self._lock:
            states = [job.state for job in self._live.values()]
            finished = len(self._finished)
            draining = self._draining
            rejected_full = self._rejected_queue_full
            rejected_quota = self._rejected_session_quota
        return {
            "queued": states.count(QUEUED),
            "running": states.count(RUNNING),
            "total": len(states) + finished,
            "max_queued": self.max_queued,
            "draining": draining,
            "rejected_queue_full": rejected_full,
            "rejected_session_quota": rejected_quota,
        }

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Block until a job reaches a terminal state (test helper).

        Raises ``KeyError`` at once for an id :meth:`get` does not know
        (never issued, or its record expired) and ``TimeoutError`` if
        the job is still live after ``timeout`` seconds.
        """
        with self._finished_cond:
            job = self._live.get(job_id) or self._finished.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if not self._finished_cond.wait_for(
                lambda: job.state in TERMINAL, timeout
            ):
                raise TimeoutError(
                    f"job {job_id} did not finish in {timeout} s"
                )
        return job

    # ------------------------------------------------------------------
    # drain and shutdown
    # ------------------------------------------------------------------
    def _wait_idle(self, timeout_s: float) -> int:
        """Wait up to ``timeout_s`` for no live job; the live count."""
        with self._finished_cond:
            self._finished_cond.wait_for(
                lambda: not self._live, max(0.0, timeout_s)
            )
            return len(self._live)

    def drain(
        self, timeout_s: float = 10.0, grace_s: float = 5.0
    ) -> Dict[str, Any]:
        """Graceful shutdown: stop admissions, wait, cancel, release.

        1. close admissions (``submit`` raises ``DrainingError``);
        2. wait up to ``timeout_s`` for queued/running jobs to finish;
        3. cancel the stragglers cooperatively and give them
           ``grace_s`` to observe the hook;
        4. :meth:`shutdown` the pool (queued leftovers are terminally
           cancelled in the registry).

        Returns a summary of terminal states for logging/metrics.
        """
        with self._lock:
            self._draining = True
        forced = self._wait_idle(timeout_s)
        if forced:
            with self._lock:
                stragglers = list(self._live.values())
            for job in stragglers:
                job.cancel_event.set()
            self._wait_idle(grace_s)
        self.shutdown()
        with self._lock:
            states = [
                job.state
                for jobs in (self._live, self._finished)
                for job in jobs.values()
            ]
        return {
            "drained": forced == 0,
            "forced": forced,
            "done": states.count(DONE),
            "failed": states.count(FAILED),
            "cancelled": states.count(CANCELLED),
        }

    def shutdown(self) -> None:
        """Cancel everything and release the worker threads.

        Queued jobs whose futures the executor drops must still reach a
        terminal state in the registry — a client polling them would
        otherwise wait forever — so anything still ``queued`` after the
        executor shutdown is marked ``cancelled`` here.
        """
        with self._lock:
            self._draining = True
            jobs = list(self._live.values())
        for job in jobs:
            job.cancel_event.set()
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            for job in list(self._live.values()):
                if job.state == QUEUED:
                    self._finish(job, CANCELLED, "cancelled: queue shut down")
