"""HTTP/JSON front end for CHOP designer sessions.

Stdlib-only (``http.server`` + threads): the point of the paper's system
is that feasibility *prediction* is fast enough to sit inside a human
iteration loop, so the server's job is to keep that loop interactive
across many concurrent designers — checks answer on the request thread
through a memoization cache, while design-space enumerations go to a
background job queue.

Endpoints::

    POST /projects                  upload a project document -> id
    GET  /projects/{id}             describe a resident session
    POST /projects/{id}/check       synchronous feasibility check
    POST /projects/{id}/enumerate   background search -> job id
    POST /projects/{id}/auto        background auto-partitioning -> job id
    POST /projects/{id}/explore     background design-space sweep -> job id
    GET  /jobs/{id}                 poll job state / result
    POST /jobs/{id}/cancel          cooperative cancellation
    GET  /jobs/{id}/trace           the job's finished span records
    GET  /jobs/{id}/explain         per-constraint feasibility breakdown
    GET  /healthz                   liveness (200 while the process runs)
    GET  /readyz                    readiness (503 while draining)
    GET  /metrics                   counters, latencies, cache, queue
                                    (?format=prometheus for text format)
    GET  /slo                       objective burn ratios (latency p95,
                                    error rate) evaluated on demand
    GET  /debug/recent              the flight recorder's newest records
                                    (?limit=N to truncate)

All request and response bodies are JSON (``/metrics`` can also render
the Prometheus text exposition format).  Errors come back as
``{"error": msg, "type": kind}`` with 400 (malformed input), 404
(unknown id), 409 (right route, wrong job state), 413 (body over the
size cap), 422 (well-formed but un-servable, e.g. no feasible
prediction survives pruning), 429 (queue or per-session quota full —
with a ``Retry-After`` header) or 503 (draining; also ``Retry-After``).
The failure-mode contract — which fault produces which status, metric
and recovery — is documented in ``docs/resilience.md``.

Every background job is traced: the whole search runs under a
``service.job`` span, the finished span tree (including the engine's
per-shard spans) is kept on the job and served by ``/jobs/{id}/trace``.
Clients propagate their own trace ids by sending an ``X-Trace-Id``
header on ``POST .../enumerate``; passing ``{"explain": true}`` in the
enumerate options additionally collects the per-constraint failure
breakdown for ``/jobs/{id}/explain``.

:class:`ChopService` is pure request->response logic; :func:`make_server`
binds it to a ``ThreadingHTTPServer`` socket.
"""

from __future__ import annotations

import datetime
import json
import math
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cache import PredictionCacheBase, create_backend
from repro.engine import EvaluationEngine
from repro.errors import (
    ChopError,
    DrainingError,
    PartitioningError,
    QueueFullError,
    SpecificationError,
)
from repro.obs.explain import ExplainCollector
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profiling import peak_rss_bytes
from repro.obs.prometheus import render_registry
from repro.obs.slo import SLOTracker, default_objectives
from repro.obs.tracing import Tracer, activate
from repro.resilience.retry import RetryPolicy, RetryStats
from repro.service.cache import LRUCache, check_cache_key
from repro.service.jobs import DONE, FAILED, CANCELLED, JobQueue
from repro.service.metrics import Metrics
from repro.service.sessions import SessionEntry, SessionRegistry

HEURISTICS = ("iterative", "enumeration")

#: Accepted shape of a client-supplied ``X-Trace-Id`` header.
_TRACE_ID_RE = re.compile(r"^[0-9A-Za-z][0-9A-Za-z._-]{3,127}$")

#: ``(status, payload, route label, extra headers)``.  The payload is a
#: JSON document, or pre-rendered text (Prometheus); extra headers carry
#: backpressure hints (``Retry-After`` on 429/503).
Response = Tuple[int, Any, str, Dict[str, str]]

#: Internal routing result, before headers are attached.
_Routed = Tuple[int, Any, str]


class ServiceError(Exception):
    """An error with a definite HTTP status (and optional headers).

    ``kind`` becomes the payload's ``type`` field so clients can branch
    on the failure mode without parsing messages.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
        kind: str = "service",
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})
        self.kind = kind


class ChopService:
    """The serving-layer facade: sessions + cache + jobs + metrics."""

    def __init__(
        self,
        cache_size: int = 256,
        max_sessions: int = 32,
        workers: int = 2,
        job_timeout_s: Optional[float] = 300.0,
        search_workers: int = 0,
        disk_cache_dir: Optional[str] = None,
        cache_backend: str = "auto",
        start_method: Optional[str] = None,
        max_queued: Optional[int] = 64,
        max_jobs_per_session: Optional[int] = 4,
        max_body_bytes: int = 1_000_000,
        job_retry: Optional[RetryPolicy] = None,
        drain_timeout_s: float = 10.0,
        slo_latency_ms: float = 500.0,
        slo_error_rate: float = 0.01,
        flight_capacity: int = 256,
        flight_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        fleet: Optional[Any] = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.max_body_bytes = max_body_bytes
        self.drain_timeout_s = drain_timeout_s
        self.registry = registry if registry is not None else get_registry()
        self.log = get_logger("service")
        self.retry_stats = RetryStats()
        self._draining = threading.Event()
        #: The fleet router when this service is one worker of a
        #: multi-process front (see :mod:`repro.service.fleet`); None
        #: in the classic single-process deployment.
        self.fleet = fleet
        self.sessions = SessionRegistry(capacity=max_sessions)
        self.cache = LRUCache(capacity=cache_size)
        self.jobs = JobQueue(
            workers=workers,
            default_timeout_s=job_timeout_s,
            max_queued=max_queued,
            max_per_session=max_jobs_per_session,
            id_prefix=(fleet.job_prefix if fleet is not None else ""),
            retry_policy=(
                job_retry
                if job_retry is not None
                else RetryPolicy(max_attempts=3, base_delay_s=0.05)
            ),
            retry_stats=self.retry_stats,
        )
        # ``workers`` threads drain the job queue; ``search_workers``
        # processes shard each enumeration's combination walk.
        self.engine: Optional[EvaluationEngine] = (
            EvaluationEngine(
                workers=search_workers, start_method=start_method
            )
            if search_workers > 1
            else None
        )
        # The prediction cache is backend-pluggable (repro.cache):
        # "auto" resolves to the multi-writer shared backend whenever
        # this service is one worker of a fleet, the single-writer disk
        # backend otherwise.
        writers = fleet.workers if fleet is not None else 1
        self.disk_cache: Optional[PredictionCacheBase] = (
            create_backend(cache_backend, disk_cache_dir, writers=writers)
            if disk_cache_dir
            else None
        )
        self.metrics = Metrics(registry=self.registry)
        self.slo = SLOTracker(
            self.registry,
            default_objectives(
                latency_ms=slo_latency_ms, error_rate=slo_error_rate
            ),
        )
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.flight_dir = flight_dir
        self.metrics.register_gauges("flight", self.flight.stats)
        self.metrics.register_gauges("cache", self.cache.stats)
        self.metrics.register_gauges("jobs", self.jobs.depth)
        self.metrics.register_gauges("sessions", self.sessions.stats)
        self.metrics.register_gauges("eval", self.sessions.eval_stats)
        if self.engine is not None:
            self.metrics.register_gauges("engine", self.engine.stats)
        if self.disk_cache is not None:
            self.metrics.register_gauges(
                "disk_cache", self.disk_cache.stats
            )
        if fleet is not None:
            self.metrics.register_gauges("fleet", fleet.stats)
        self._auto_lock = threading.Lock()
        self._auto_stats: Dict[str, int] = {
            "jobs": 0, "feasible": 0, "infeasible": 0, "clones": 0,
            "repair_moves": 0,
        }
        self.metrics.register_gauges("auto", self._auto_snapshot)
        self._explore_lock = threading.Lock()
        self._explore_stats: Dict[str, int] = {
            "jobs": 0, "candidates": 0, "feasible": 0,
            "front_points": 0, "cache_seeded": 0,
        }
        self.metrics.register_gauges("explore", self._explore_snapshot)
        self.started_at = time.time()
        self.metrics.register_gauges("process", self._process_stats)
        self.metrics.register_gauges("retries", self.retry_stats.stats)

    def close(self) -> None:
        self._draining.set()
        self.jobs.shutdown()

    @property
    def draining(self) -> bool:
        """Whether the service has stopped admitting new work."""
        return self._draining.is_set() or self.jobs.draining

    def drain(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown: refuse admissions, settle jobs, release.

        From the first moment ``/readyz`` answers 503 and every POST is
        refused with 503; in-flight jobs get ``timeout_s`` (default:
        the configured ``drain_timeout_s``) to finish before they are
        cancelled cooperatively.  Returns the job-queue drain summary.
        """
        self._draining.set()
        return self.jobs.drain(
            timeout_s=(
                self.drain_timeout_s if timeout_s is None else timeout_s
            )
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        trace_id: Optional[str] = None,
        internal: bool = False,
    ) -> Response:
        """Serve one request; returns (status, payload, route, headers).

        The route label is the metrics key — the path template with ids
        elided, so per-endpoint latencies aggregate across tenants.
        ``trace_id`` is the client's ``X-Trace-Id`` header, adopted by
        traced background jobs so a caller can correlate its own trace
        with the server-side span tree.  The headers dict carries
        backpressure hints — ``Retry-After`` on 429 (queue or session
        quota) and 503 (draining).

        In a fleet, a sticky request owned by another worker is
        forwarded to that worker's internal listener; ``internal``
        marks requests arriving *on* the internal listener, which are
        always served locally (forwarding never chains).
        """
        fallback = f"{method} {path}"
        try:
            if (
                body is not None
                and len(body) > self.max_body_bytes
            ):
                raise ServiceError(
                    413,
                    f"request body of {len(body)} bytes exceeds the "
                    f"{self.max_body_bytes}-byte cap",
                    kind="body_too_large",
                )
            if self.fleet is not None and not internal:
                owner = self.fleet.owner_for(method, path, body)
                if owner is not None and owner != self.fleet.index:
                    return self.fleet.forward(
                        owner, method, path, body, trace_id
                    )
            status, payload, route = self._route(
                method, path, body, trace_id, internal=internal
            )
            return status, payload, route, {}
        except ServiceError as exc:
            return (
                exc.status,
                {"error": str(exc), "type": exc.kind},
                fallback,
                dict(exc.headers),
            )
        except SpecificationError as exc:
            return (
                400,
                {"error": str(exc), "type": "specification"},
                fallback,
                {},
            )
        except QueueFullError as exc:
            return (
                429,
                {"error": str(exc), "type": "queue_full"},
                fallback,
                {"Retry-After": str(int(round(exc.retry_after_s)))},
            )
        except DrainingError as exc:
            return (
                503,
                {"error": str(exc), "type": "draining"},
                fallback,
                {"Retry-After": str(int(round(self.drain_timeout_s)))},
            )
        except ChopError as exc:
            payload: Dict[str, Any] = {
                "error": str(exc),
                "type": type(exc).__name__,
            }
            detail = getattr(exc, "detail", None)
            if callable(detail):
                # Structured errors (e.g. CombinationExplosionError)
                # carry actionable data — ship it with the 4xx.
                payload["detail"] = detail()
            return 422, payload, fallback, {}

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        trace_id: Optional[str] = None,
        internal: bool = False,
    ) -> _Routed:
        path, _, query = path.partition("?")
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return 200, self._healthz(), "GET /healthz"
        if method == "GET" and parts == ["readyz"]:
            return self._readyz() + ("GET /readyz",)
        if method == "GET" and parts == ["metrics"]:
            return 200, self._metrics(query, internal), "GET /metrics"
        if method == "GET" and parts == ["slo"]:
            return 200, self.slo.evaluate(), "GET /slo"
        if method == "GET" and parts == ["debug", "recent"]:
            return 200, self._recent(query), "GET /debug/recent"
        if method == "POST" and self.draining and parts[:1] != ["jobs"]:
            # Liveness, readiness, metrics, job polling and cancellation
            # stay up during a drain; anything that admits work does not.
            raise DrainingError(
                "service is draining; no new work is admitted"
            )
        if method == "POST" and parts == ["projects"]:
            status, payload = self._upload(self._json_body(body))
            return status, payload, "POST /projects"
        if len(parts) == 2 and parts[0] == "projects" and method == "GET":
            entry = self._entry(parts[1])
            return 200, entry.to_dict(), "GET /projects/{id}"
        if len(parts) == 3 and parts[0] == "projects":
            entry = self._entry(parts[1])
            if method == "POST" and parts[2] == "check":
                payload = self._check(entry, self._options(body))
                return 200, payload, "POST /projects/{id}/check"
            if method == "POST" and parts[2] == "enumerate":
                payload = self._enumerate(
                    entry, self._options(body), trace_id
                )
                return 202, payload, "POST /projects/{id}/enumerate"
            if method == "POST" and parts[2] == "auto":
                payload = self._auto(
                    entry, self._options(body), trace_id
                )
                return 202, payload, "POST /projects/{id}/auto"
            if method == "POST" and parts[2] == "explore":
                payload = self._explore(
                    entry, self._options(body), trace_id
                )
                return 202, payload, "POST /projects/{id}/explore"
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return 200, self._job(parts[1]).to_dict(), "GET /jobs/{id}"
        if len(parts) == 3 and parts[0] == "jobs":
            job = self._job(parts[1])
            if method == "POST" and parts[2] == "cancel":
                self.jobs.cancel(job.id)
                return 202, job.to_dict(), "POST /jobs/{id}/cancel"
            if method == "GET" and parts[2] == "trace":
                return (
                    200, self._job_trace(job), "GET /jobs/{id}/trace",
                )
            if method == "GET" and parts[2] == "explain":
                return (
                    200,
                    self._job_explain(job),
                    "GET /jobs/{id}/explain",
                )
        raise ServiceError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # endpoint bodies
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        """Liveness: 200 for as long as the process can answer at all."""
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    def _readyz(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: 503 once draining so balancers stop routing here."""
        if self.draining:
            return 503, {"status": "draining"}
        return 200, {"status": "ready"}

    def _metrics(self, query: str = "", internal: bool = False) -> Any:
        # Refresh the SLO burn gauges so every scrape (either format)
        # carries the current objective state.
        self.slo.evaluate()
        # In a fleet, any worker serves the whole fleet's metrics by
        # scraping its peers' internal listeners and merging; the
        # internal scrape itself (and an explicit ?scope=local) stays
        # single-worker so the recursion bottoms out.
        aggregate = (
            self.fleet is not None
            and not internal
            and "scope=local" not in query
        )
        if "format=prometheus" in query:
            # The text exposition renders the shared registry directly;
            # subsystem stats() suppliers are registered pull-gauges.
            text = render_registry(self.registry)
            if aggregate:
                return self.fleet.aggregate_prometheus(text)
            return text
        # Legacy JSON shape: per-route sample percentiles plus the
        # registered subsystem gauge suppliers.
        snapshot = self.metrics.snapshot()
        if aggregate:
            return self.fleet.aggregate_json(snapshot)
        return snapshot

    def _recent(self, query: str = "") -> Dict[str, Any]:
        """The flight recorder's newest records, for ``/debug/recent``."""
        limit: Optional[int] = None
        match = re.search(r"(?:^|&)limit=(\d+)", query)
        if match:
            limit = int(match.group(1))
        records = self.flight.recent(limit=limit)
        return {
            "stats": self.flight.stats(),
            "records": records,
        }

    def note_request(
        self,
        route: str,
        seconds: float,
        status: int,
        trace_id: Optional[str] = None,
    ) -> None:
        """Account one finished HTTP request everywhere it belongs.

        Updates the metrics registry and the legacy snapshot, appends a
        flight-recorder entry, and — on any 5xx — logs the failure and
        snapshots the flight buffer to ``flight_dir`` so the context
        around the error survives the process.
        """
        self.metrics.observe(route, seconds, status, trace_id=trace_id)
        self.flight.record(
            "request",
            route=route,
            status=status,
            latency_ms=seconds * 1000.0,
            trace_id=trace_id,
        )
        if status >= 500 and status != 503:
            # 503 is the drain/backpressure contract, not a failure.
            self.log.error(
                "request failed",
                route=route,
                status=status,
                latency_ms=round(seconds * 1000.0, 3),
                trace_id=trace_id,
            )
            self._dump_flight(reason="5xx")

    def _dump_flight(self, reason: str = "manual") -> Optional[str]:
        """Best-effort flight dump into ``flight_dir`` (None if unset)."""
        if not self.flight_dir:
            return None
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = (
            f"{self.flight_dir}/flight-{stamp}-"
            f"{self.flight.stats()['recorded']}-{reason}.json"
        )
        try:
            return self.flight.dump_to(path)
        except OSError as exc:
            self.log.warning(
                "flight dump failed", path=path, error=str(exc)
            )
            return None

    def _process_stats(self) -> Dict[str, Any]:
        """Uptime and memory gauges for the ``process`` metrics block."""
        started = datetime.datetime.fromtimestamp(
            self.started_at, tz=datetime.timezone.utc
        )
        doc: Dict[str, Any] = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "started_at": started.isoformat(timespec="seconds"),
        }
        rss = peak_rss_bytes()
        if rss is not None:
            doc["peak_rss_bytes"] = rss
        return doc

    def _upload(
        self, document: Any
    ) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(document, dict):
            raise ServiceError(
                400, "project upload must be a JSON object"
            )
        entry, created = self.sessions.put(document)
        payload = entry.to_dict()
        payload["created"] = created
        return (201 if created else 200), payload

    def _check(
        self, entry: SessionEntry, options: Dict[str, Any]
    ) -> Dict[str, Any]:
        heuristic = options.get("heuristic", "iterative")
        prune = bool(options.get("prune", True))
        if heuristic not in HEURISTICS:
            raise ServiceError(
                400,
                f"unknown heuristic {heuristic!r}; use one of "
                f"{list(HEURISTICS)}",
            )
        soft_deadline_s = self._number_option(options, "soft_deadline_s")
        if soft_deadline_s is not None:
            if soft_deadline_s <= 0:
                raise ServiceError(
                    400, "soft_deadline_s must be positive",
                    kind="invalid_option",
                )
            # A soft-deadlined check may return a *partial* verdict;
            # partial verdicts are never memoized (a later full check
            # must not inherit them) so this path bypasses the cache.
            with entry.lock:
                result = self._checked(
                    entry,
                    heuristic=heuristic,
                    prune=prune,
                    soft_deadline_s=soft_deadline_s,
                ).to_dict()
            return {
                "project_id": entry.project_id,
                "cache_hit": False,
                "result": result,
            }
        key = check_cache_key(entry.fingerprint, heuristic, prune)

        def compute() -> Dict[str, Any]:
            with entry.lock:
                return self._checked(
                    entry, heuristic=heuristic, prune=prune
                ).to_dict()

        result, hit = self.cache.get_or_compute(key, compute)
        return {
            "project_id": entry.project_id,
            "cache_hit": hit,
            "result": result,
        }

    def _checked(self, entry: SessionEntry, **options: Any):
        """Run one check under the disk prediction cache, if configured.

        Seeds the session's prediction cache from disk before the check
        and persists the (possibly freshly computed) predictions after a
        miss — so an identical project checked after a restart skips BAD
        prediction entirely.  Callers must hold ``entry.lock``.
        """
        options.setdefault("engine", self.engine)
        if self.disk_cache is None:
            return entry.session.check(**options)
        session = entry.session
        disk_key = self.disk_cache.key_for(
            entry.fingerprint, session.library, session.clocks
        )
        cached = self.disk_cache.load(disk_key)
        if cached is not None:
            session.seed_predictions(cached)
        result = session.check(**options)
        if cached is None:
            # Best-effort: a sick cache disk degrades persistence to a
            # no-op (counted in disk_cache.store_failures), it never
            # fails the check that just succeeded.
            self.disk_cache.store_safely(
                disk_key, session.export_predictions()
            )
        return result

    def _enumerate(
        self,
        entry: SessionEntry,
        options: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        heuristic = options.get("heuristic", "enumeration")
        prune = bool(options.get("prune", True))
        explain = bool(options.get("explain", False))
        if heuristic not in HEURISTICS:
            raise ServiceError(
                400,
                f"unknown heuristic {heuristic!r}; use one of "
                f"{list(HEURISTICS)}",
                kind="invalid_option",
            )
        if explain and heuristic != "enumeration":
            raise ServiceError(
                400,
                "explain collection requires the enumeration heuristic",
                kind="invalid_option",
            )
        self._require_valid_trace_id(trace_id)
        timeout_s = self._number_option(options, "timeout_s")

        tracer = Tracer(trace_id=trace_id)

        def run(job) -> Dict[str, Any]:
            collector = ExplainCollector() if explain else None
            started = time.perf_counter()
            try:
                with entry.lock, activate(tracer):
                    with tracer.span(
                        "service.job", job_id=job.id, kind=job.kind,
                    ):
                        result = self._checked(
                            entry,
                            heuristic=heuristic,
                            prune=prune,
                            cancel=job.should_stop,
                            progress=job.report_progress,
                            collector=collector,
                        ).to_dict()
            finally:
                # Keep the trace (and explain, once collected) even
                # when the search failed or was cancelled — that is
                # when the designer needs them most.
                job.artifacts["trace"] = tracer.spans()
                if collector is not None and collector.evaluated:
                    job.artifacts["explain"] = collector.report(
                        heuristic=heuristic
                    ).to_dict()
                self._flight_job(job, tracer, started)
            return result

        job = self.jobs.submit(
            run,
            kind=f"{heuristic}:{entry.project_id}",
            timeout_s=timeout_s,
            pass_job=True,
            session_key=entry.project_id,
        )
        job.trace_id = tracer.trace_id
        return job.to_dict()

    def _auto_snapshot(self) -> Dict[str, int]:
        with self._auto_lock:
            return dict(self._auto_stats)

    def _auto(
        self,
        entry: SessionEntry,
        options: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a background auto-partitioning of one project's graph.

        Options: ``chips`` (default 4), ``replicate`` (bool),
        ``max_clones``, ``balance_tolerance``, ``feasibility_moves``,
        ``heuristic``, ``timeout_s``, ``include_assignment`` (ship the
        full op-to-partition map in the result — off by default, the
        map is graph-sized).  The job result is the auto summary; the
        span tree (``auto.coarsen`` / ``auto.refine`` /
        ``auto.replicate`` / ...) is served by ``/jobs/{id}/trace``.
        """
        from repro.auto import AutoPartitionConfig, auto_partition
        from repro.auto.partitioner import session_like_factory

        heuristic = options.get("heuristic", "iterative")
        if heuristic not in HEURISTICS:
            raise ServiceError(
                400,
                f"unknown heuristic {heuristic!r}; use one of "
                f"{list(HEURISTICS)}",
                kind="invalid_option",
            )
        self._require_valid_trace_id(trace_id)
        timeout_s = self._number_option(options, "timeout_s")
        try:
            config = AutoPartitionConfig(
                chips=int(options.get("chips", 4)),
                replicate=bool(options.get("replicate", False)),
                max_clones=int(options.get("max_clones", 0)),
                balance_tolerance=float(
                    options.get("balance_tolerance", 0.3)
                ),
                feasibility_moves=int(
                    options.get("feasibility_moves", 32)
                ),
                heuristic=heuristic,
            )
            config.validate()
            if config.chips > entry.session.graph.op_count():
                # auto_partition would raise the same PartitioningError
                # inside the job; validating here turns a failed job
                # into an immediate, typed 400.
                raise PartitioningError(
                    f"cannot spread "
                    f"{entry.session.graph.op_count()} operations over "
                    f"{config.chips} chips"
                )
        except (TypeError, ValueError, PartitioningError) as exc:
            raise ServiceError(
                400, f"invalid auto option: {exc}", kind="invalid_option"
            ) from None
        include_assignment = bool(options.get("include_assignment", False))

        tracer = Tracer(trace_id=trace_id)

        def run(job) -> Dict[str, Any]:
            started = time.perf_counter()
            try:
                with entry.lock, activate(tracer):
                    with tracer.span(
                        "service.job", job_id=job.id, kind=job.kind,
                    ):
                        outcome = auto_partition(
                            entry.session.graph,
                            config,
                            session_factory=session_like_factory(
                                entry.session
                            ),
                            engine=self.engine,
                            progress=job.report_progress,
                        )
            finally:
                job.artifacts["trace"] = tracer.spans()
                self._flight_job(job, tracer, started)
            payload = outcome.to_dict()
            if include_assignment:
                payload["assignment"] = dict(outcome.assignment)
            with self._auto_lock:
                self._auto_stats["jobs"] += 1
                key = "feasible" if outcome.feasible else "infeasible"
                self._auto_stats[key] += 1
                self._auto_stats["clones"] += payload["clones"]
                self._auto_stats["repair_moves"] += payload[
                    "repair_moves"
                ]
            return payload

        job = self.jobs.submit(
            run,
            kind=f"auto:{entry.project_id}",
            timeout_s=timeout_s,
            pass_job=True,
            session_key=entry.project_id,
        )
        job.trace_id = tracer.trace_id
        return job.to_dict()

    def _explore_snapshot(self) -> Dict[str, int]:
        with self._explore_lock:
            return dict(self._explore_stats)

    def _explore(
        self,
        entry: SessionEntry,
        options: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a background design-space sweep of one project.

        Options: ``k_min``/``k_max`` (or an explicit ``chip_counts``
        list), ``package_scales``, ``objectives``, ``seeding``
        (``heuristic`` | ``auto``), ``heuristic``, ``timeout_s``,
        ``include_projects`` (embed each front point's full project
        document — off by default, the documents are graph-sized).
        Candidate sessions inherit the project's designer inputs via
        :func:`repro.explore.project_session_factory`; the sweep runs
        under the service engine and disk prediction cache, so repeated
        sweeps of the same project are warm.  Every bad option is an
        immediate 400 with ``type: invalid_option`` — the same contract
        as ``/auto`` — never a failed background job.
        """
        from repro.explore import (
            ExploreConfig,
            explore,
            project_session_factory,
        )

        self._require_valid_trace_id(trace_id)
        timeout_s = self._number_option(options, "timeout_s")
        try:
            if "chip_counts" in options:
                chip_counts = tuple(
                    int(k) for k in options["chip_counts"]
                )
            else:
                k_min = int(options.get("k_min", 1))
                k_max = int(options.get("k_max", 4))
                if k_min > k_max:
                    raise ValueError(
                        f"k_min {k_min} exceeds k_max {k_max}"
                    )
                chip_counts = tuple(range(k_min, k_max + 1))
            config = ExploreConfig(
                chip_counts=chip_counts,
                package_scales=tuple(
                    float(s)
                    for s in options.get("package_scales", (1.0,))
                ),
                objectives=tuple(
                    options.get(
                        "objectives",
                        ("cost", "performance", "delay", "chips"),
                    )
                ),
                seeding=options.get("seeding", "heuristic"),
                heuristic=options.get("heuristic", "iterative"),
            )
            # op_count bounds the k axis: a sweep that cannot seed any
            # candidate is a client error, not a job failure.
            config.validate(op_count=entry.session.graph.op_count())
        except (TypeError, ValueError, ChopError) as exc:
            raise ServiceError(
                400,
                f"invalid explore option: {exc}",
                kind="invalid_option",
            ) from None
        include_projects = bool(options.get("include_projects", False))

        tracer = Tracer(trace_id=trace_id)

        def run(job) -> Dict[str, Any]:
            factory = project_session_factory(entry.session)
            started = time.perf_counter()
            try:
                with entry.lock, activate(tracer):
                    with tracer.span(
                        "service.job", job_id=job.id, kind=job.kind,
                    ):
                        result = explore(
                            entry.session.graph,
                            config,
                            session_factory=factory,
                            engine=self.engine,
                            disk_cache=self.disk_cache,
                            progress=job.report_progress,
                            cancel=job.should_stop,
                        )
            finally:
                job.artifacts["trace"] = tracer.spans()
                self._flight_job(job, tracer, started)
            payload = result.to_dict(include_projects=include_projects)
            payload["project_id"] = entry.project_id
            with self._explore_lock:
                self._explore_stats["jobs"] += 1
                self._explore_stats["candidates"] += result.evaluated
                self._explore_stats["feasible"] += result.feasible
                self._explore_stats["front_points"] += len(result.front)
                self._explore_stats["cache_seeded"] += (
                    result.cache_seeded
                )
            return payload

        job = self.jobs.submit(
            run,
            kind=f"explore:{entry.project_id}",
            timeout_s=timeout_s,
            pass_job=True,
            session_key=entry.project_id,
        )
        job.trace_id = tracer.trace_id
        return job.to_dict()

    def _flight_job(self, job, tracer: Tracer, started: float) -> None:
        """Flight-record one finished background job (any outcome)."""
        self.flight.record(
            "job",
            latency_ms=(time.perf_counter() - started) * 1000.0,
            trace_id=tracer.trace_id,
            spans=tracer.spans(),
            job_id=job.id,
            job_kind=job.kind,
        )

    def _job_trace(self, job) -> Dict[str, Any]:
        """The finished span records of one background job."""
        if job.state not in (DONE, FAILED, CANCELLED):
            raise ServiceError(
                409,
                f"job {job.id!r} is {job.state}; its trace is available "
                "once it finishes",
            )
        spans = job.artifacts.get("trace")
        if spans is None:
            raise ServiceError(
                404, f"job {job.id!r} recorded no trace"
            )
        return {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "spans": spans,
        }

    def _job_explain(self, job) -> Dict[str, Any]:
        """The per-constraint feasibility breakdown of one job."""
        if job.state not in (DONE, FAILED, CANCELLED):
            raise ServiceError(
                409,
                f"job {job.id!r} is {job.state}; explain data is "
                "available once it finishes",
            )
        explain = job.artifacts.get("explain")
        if explain is None:
            raise ServiceError(
                404,
                f"job {job.id!r} collected no explain data; submit the "
                'enumeration with {"explain": true} to collect it',
            )
        return {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "explain": explain,
        }

    # ------------------------------------------------------------------
    # lookups and parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _require_valid_trace_id(trace_id: Optional[str]) -> None:
        if trace_id is not None and not _TRACE_ID_RE.match(trace_id):
            raise ServiceError(
                400,
                "X-Trace-Id must be 4-128 characters of "
                "[0-9A-Za-z._-] starting with an alphanumeric",
            )

    @staticmethod
    def _number_option(
        options: Dict[str, Any], name: str
    ) -> Optional[float]:
        """A finite numeric option, or None when absent.

        NaN and infinity are rejected: a NaN deadline never fires, and
        neither value serializes as JSON in the job document.
        """
        value = options.get(name)
        if value is None:
            return None
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            raise ServiceError(
                400,
                f"{name} must be a finite number, got {value!r}",
                kind="invalid_option",
            )
        return number

    def _entry(self, project_id: str) -> SessionEntry:
        entry = self.sessions.get(project_id)
        if entry is None:
            raise ServiceError(
                404,
                f"unknown project {project_id!r}; upload it via "
                "POST /projects (ids expire under the LRU policy)",
            )
        return entry

    def _job(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return job

    @classmethod
    def _options(cls, body: Optional[bytes]) -> Dict[str, Any]:
        """A POST's options object; an empty body means all defaults."""
        options = cls._json_body(body, {})
        if not isinstance(options, dict):
            raise ServiceError(
                400,
                f"request options must be a JSON object, got "
                f"{type(options).__name__}",
                kind="invalid_option",
            )
        return options

    @staticmethod
    def _json_body(body: Optional[bytes], default: Any = None) -> Any:
        if not body:
            if default is not None:
                return default
            raise ServiceError(400, "request body required")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, f"invalid JSON body: {exc}"
            ) from None


# ----------------------------------------------------------------------
# socket binding
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    service: ChopService  # injected by make_server
    quiet = True
    protocol_version = "HTTP/1.1"
    #: True on a fleet worker's internal (forwarding) listener — those
    #: requests are always served locally, never re-forwarded.
    internal = False

    # Route through one dispatcher per method.
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.service.max_body_bytes:
            # Reject from the declared length alone — never buffer an
            # oversized body into memory.  The unread body makes the
            # connection unusable for keep-alive, so close it.
            status, payload, route, extra = (
                413,
                {
                    "error": (
                        f"request body of {length} bytes exceeds the "
                        f"{self.service.max_body_bytes} byte cap"
                    ),
                    "type": "body_too_large",
                },
                "(oversized)",
                {},
            )
            self.close_connection = True
        else:
            body = self.rfile.read(length) if length else None
            status, payload, route, extra = self.service.handle(
                method, self.path, body,
                trace_id=self.headers.get("X-Trace-Id"),
                internal=self.internal,
            )
        if self.service.fleet is not None:
            # Which worker *answered* — forwarded responses keep the
            # owner's stamp; locally served ones get this worker's.
            extra.setdefault(
                "X-Chop-Worker", str(self.service.fleet.index)
            )
        if isinstance(payload, str):
            # Pre-rendered text (the Prometheus exposition format).
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        self.service.note_request(
            route,
            time.perf_counter() - started,
            status,
            trace_id=self.headers.get("X-Trace-Id"),
        )

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:
            super().log_message(format, *args)


def make_server(
    service: ChopService, host: str = "127.0.0.1", port: int = 8080
) -> ThreadingHTTPServer:
    """Bind the service to a threading HTTP server (not yet serving)."""
    handler = type("ChopHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    service: ChopService,
    host: str = "127.0.0.1",
    port: int = 8080,
    drain_timeout_s: Optional[float] = None,
) -> None:
    """Run the server until interrupted (the CLI entry point).

    ``SIGTERM`` triggers a graceful drain: admissions stop immediately
    (``/readyz`` flips to 503, new ``POST`` s get the same), running
    jobs get up to the drain timeout to finish, stragglers are
    cancelled cooperatively, and only then does the socket close.
    ``KeyboardInterrupt`` (Ctrl-C) takes the same path.  ``SIGUSR2``
    dumps the flight recorder to the service's flight directory (the
    working directory when unset) without interrupting traffic.
    """
    server = make_server(service, host, port)
    drained = threading.Event()

    def _on_sigusr2(signum: Any, frame: Any) -> None:
        # Black-box pull from a live process; write from a helper
        # thread so the handler returns immediately.
        def _dump() -> None:
            if service.flight_dir:
                service._dump_flight(reason="sigusr2")
            else:
                service.flight.dump_to(
                    f"flight-{int(time.time())}-sigusr2.json"
                )

        threading.Thread(target=_dump, daemon=True).start()

    if hasattr(signal, "SIGUSR2"):
        try:
            signal.signal(signal.SIGUSR2, _on_sigusr2)
        except ValueError:
            pass  # not the main thread; embedders dump directly

    def _drain_and_stop() -> None:
        if drained.is_set():
            return
        drained.set()
        service.drain(timeout_s=drain_timeout_s)
        server.shutdown()

    def _on_sigterm(signum: Any, frame: Any) -> None:
        # serve_forever holds the main thread; drain from a helper so
        # the signal handler returns immediately.
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # Not the main thread (embedded/test use) — SIGTERM handling
        # is the embedder's job; drain() is still callable directly.
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _drain_and_stop()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
