"""HTTP/JSON front end for CHOP designer sessions.

Stdlib-only (``http.server`` + threads): the point of the paper's system
is that feasibility *prediction* is fast enough to sit inside a human
iteration loop, so the server's job is to keep that loop interactive
across many concurrent designers — checks answer on the request thread
through a memoization cache, while design-space enumerations go to a
background job queue.

Endpoints (the route table, :data:`ROUTES`)::

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
(unknown id), 408 (body stalled), 409 (right route, wrong job state),
413 (body over the size cap), 422 (well-formed but un-servable, e.g.
no feasible prediction survives pruning), 429 (queue or per-session
quota full — with a ``Retry-After`` header), 500 (a defect:
``type: "internal"``) or 503 (draining; also ``Retry-After``).
The failure-mode contract — which fault produces which status, metric
and recovery — is documented in ``docs/resilience.md``.  Every response
is counted under its route template, so metric labels are bounded by
the table (plus ``(unmatched)``), never by the paths clients send.

Every background job is traced: the whole search runs under a
``service.job`` span, the finished span tree (including the engine's
per-shard spans) is kept on the job and served by ``/jobs/{id}/trace``.
Clients propagate their own trace ids by sending an ``X-Trace-Id``
header on ``POST .../enumerate``; passing ``{"explain": true}`` in the
enumerate options additionally collects the per-constraint failure
breakdown for ``/jobs/{id}/explain``.

:class:`ChopService` is pure request->response logic; :func:`make_server`
binds it to a ``ThreadingHTTPServer`` socket and :func:`serve` runs it
until a signal drains it.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import os
import re
import signal
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.cache import DiskPredictionCache, check_with_cache
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
from repro.obs.slo import SLOTracker
from repro.obs.tracing import Tracer, activate
from repro.service.cache import LRUCache, check_cache_key
from repro.service.jobs import DONE, FAILED, CANCELLED, Job, JobQueue
from repro.service.metrics import Metrics
from repro.service.sessions import SessionEntry, SessionRegistry

HEURISTICS = ("iterative", "enumeration")

#: Accepted shape of a client-supplied ``X-Trace-Id`` header.
_TRACE_ID_RE = re.compile(r"^[0-9A-Za-z][0-9A-Za-z._-]{3,127}$")

#: ``(status, payload, route label, extra headers)``.  The payload is a
#: JSON document, or pre-rendered text (Prometheus); extra headers carry
#: backpressure hints (``Retry-After`` on 429/503).
Response = Tuple[int, Any, str, Dict[str, str]]

#: A route handler's answer: ``(status, payload)``.
_Reply = Tuple[int, Any]

#: The route table: ``"METHOD /path/template"`` -> the
#: :class:`ChopService` method serving it.  A ``{id}`` segment matches
#: any one path segment, handed to the handler as its ``ident``.
#: The template string is the metrics label of every response to a
#: matching request — success, 4xx and 413 alike.
ROUTES: Dict[str, str] = {
    "GET /healthz": "_healthz",
    "GET /readyz": "_readyz",
    "GET /metrics": "_metrics",
    "GET /slo": "_slo",
    "GET /debug/recent": "_recent",
    "POST /projects": "_upload",
    "GET /projects/{id}": "_project",
    "POST /projects/{id}/check": "_check",
    "POST /projects/{id}/enumerate": "_enumerate",
    "POST /projects/{id}/auto": "_auto",
    "POST /projects/{id}/explore": "_explore",
    "GET /jobs/{id}": "_job_status",
    "POST /jobs/{id}/cancel": "_job_cancel",
    "GET /jobs/{id}/trace": "_job_trace",
    "GET /jobs/{id}/explain": "_job_explain",
}

#: The one label of a request that matches no route.
UNMATCHED = "(unmatched)"

_SHAPES = tuple(
    (label, method, tuple(template.strip("/").split("/")))
    for label in ROUTES
    for method, template in [label.split(" ", 1)]
)


def _resolve_route(method: str, path: str) -> Tuple[str, Optional[str]]:
    """The route label of one request and its ``{id}`` path segment.

    Returns ``(UNMATCHED, None)`` when no route matches.
    """
    parts = [p for p in path.partition("?")[0].split("/") if p]
    for label, verb, shape in _SHAPES:
        if verb != method or len(shape) != len(parts):
            continue
        ident = None
        for want, got in zip(shape, parts):
            if want == "{id}":
                ident = got
            elif want != got:
                break
        else:
            return label, ident
    return UNMATCHED, None


class _Request(NamedTuple):
    """What a route handler reads of one request."""

    ident: Optional[str]
    query: str
    body: Optional[bytes]
    trace_id: Optional[str]


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


def _invalid(message: str) -> ServiceError:
    return ServiceError(400, message, kind="invalid_option")


def _is_number(value: Any) -> bool:
    """A finite JSON number — not a boolean, a string or NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


#: The JSON types of request options: kind -> (test, description).
_OPTION_KINDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "boolean": (lambda v: isinstance(v, bool), "a JSON boolean"),
    "integer": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        "a JSON integer",
    ),
    "number": (_is_number, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a JSON string"),
}


def _option(
    options: Dict[str, Any], name: str, kind: str, default: Any = None
) -> Any:
    """The one typed reader of request options.

    ``kind`` is ``boolean``, ``integer``, ``number`` (finite, read as a
    float) or ``string``; ``array:<kind>`` is a JSON array of one of
    them, read as a tuple.  A value of any other JSON type — a string
    for a number, boolean or list, a float for an integer — is a 400
    ``invalid_option`` naming the option.  An absent option reads as
    ``default``; ``null`` reads as unset only where the default is.
    """
    value = options.get(name)
    if name not in options or (value is None and default is None):
        return default
    array, _, item = kind.rpartition(":")
    test, what = _OPTION_KINDS[item]
    convert = float if item == "number" else (lambda v: v)
    if array:
        if isinstance(value, list) and all(map(test, value)):
            return tuple(map(convert, value))
        what = f"a JSON array of {item}s"
    elif test(value):
        return convert(value)
    raise _invalid(f"{name} must be {what}, got {value!r}")


def _heuristic(options: Dict[str, Any], default: str) -> str:
    heuristic = options.get("heuristic", default)
    if heuristic not in HEURISTICS:
        raise _invalid(
            f"unknown heuristic {heuristic!r}; use one of "
            f"{list(HEURISTICS)}"
        )
    return heuristic


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
        max_queued: Optional[int] = 64,
        max_jobs_per_session: Optional[int] = 4,
        max_body_bytes: int = 1_000_000,
        drain_timeout_s: float = 10.0,
        slo_latency_ms: float = 500.0,
        slo_error_rate: float = 0.01,
        flight_capacity: int = 256,
        flight_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.max_body_bytes = max_body_bytes
        self.drain_timeout_s = drain_timeout_s
        self.registry = registry if registry is not None else get_registry()
        self.log = get_logger("service")
        self._draining = threading.Event()
        self.sessions = SessionRegistry(capacity=max_sessions)
        self.cache = LRUCache(capacity=cache_size)
        self.jobs = JobQueue(
            workers=workers,
            default_timeout_s=job_timeout_s,
            max_queued=max_queued,
            max_per_session=max_jobs_per_session,
        )
        # ``workers`` threads drain the job queue; ``search_workers``
        # processes shard each enumeration's combination walk.
        self.engine: Optional[EvaluationEngine] = (
            EvaluationEngine(workers=search_workers)
            if search_workers > 1
            else None
        )
        self.disk_cache: Optional[DiskPredictionCache] = (
            DiskPredictionCache(disk_cache_dir) if disk_cache_dir else None
        )
        self.metrics = Metrics(registry=self.registry)
        self.slo = SLOTracker(
            self.registry, latency_ms=slo_latency_ms, error_rate=slo_error_rate
        )
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.flight_dir = flight_dir
        self.started_at = time.time()
        # Job outcome counters of the auto and explore routes, one
        # block each in /metrics.
        self._tally_lock = threading.Lock()
        self._tallies: Dict[str, Dict[str, int]] = {
            "auto": dict.fromkeys(
                ("jobs", "feasible", "infeasible", "clones",
                 "repair_moves"),
                0,
            ),
            "explore": dict.fromkeys(
                ("jobs", "candidates", "feasible", "front_points",
                 "cache_seeded"),
                0,
            ),
        }
        # Each subsystem's stats() becomes a /metrics block and a set
        # of chop_<label>_* gauges; close() withdraws them again.
        self._suppliers: Dict[str, Callable[[], Any]] = {
            "flight": self.flight.stats,
            "cache": self.cache.stats,
            "jobs": self.jobs.depth,
            "sessions": self.sessions.stats,
            "eval": self.sessions.eval_stats,
            "auto": functools.partial(self._tally_snapshot, "auto"),
            "explore": functools.partial(self._tally_snapshot, "explore"),
            "process": self._process_stats,
        }
        if self.engine is not None:
            self._suppliers["engine"] = self.engine.stats
        if self.disk_cache is not None:
            self._suppliers["disk_cache"] = self.disk_cache.stats
        for label, supplier in self._suppliers.items():
            self.registry.register_stats(label, supplier)

    def close(self) -> None:
        self._draining.set()
        self.jobs.shutdown()
        for label, supplier in self._suppliers.items():
            self.registry.unregister_stats(label, supplier)

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
    ) -> Response:
        """Serve one request; returns (status, payload, route, headers).

        The route label is the metrics key — the matching
        :data:`ROUTES` template, or :data:`UNMATCHED` — so per-endpoint
        latencies aggregate across tenants and junk paths share one
        label.  ``trace_id`` is the client's ``X-Trace-Id`` header,
        adopted by traced background jobs so a caller can correlate its
        own trace with the server-side span tree.  The headers dict
        carries backpressure hints — ``Retry-After`` on 429 (queue or
        session quota) and 503 (draining).
        """
        route, ident = _resolve_route(method, path)
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
            path, _, query = path.partition("?")
            if (
                method == "POST"
                and self.draining
                and not route.startswith("POST /jobs/")
            ):
                # Liveness, readiness, metrics, job polling and
                # cancellation stay up during a drain; anything that
                # admits work does not.
                raise DrainingError(
                    "service is draining; no new work is admitted"
                )
            if route == UNMATCHED:
                raise ServiceError(404, f"no route for {method} {path}")
            handler = getattr(self, ROUTES[route])
            status, payload = handler(
                _Request(ident, query, body, trace_id)
            )
            return status, payload, route, {}
        except ServiceError as exc:
            return (
                exc.status,
                {"error": str(exc), "type": exc.kind},
                route,
                dict(exc.headers),
            )
        except SpecificationError as exc:
            return (
                400,
                {"error": str(exc), "type": "specification"},
                route,
                {},
            )
        except QueueFullError as exc:
            return (
                429,
                {"error": str(exc), "type": "queue_full"},
                route,
                {"Retry-After": str(int(round(exc.retry_after_s)))},
            )
        except DrainingError as exc:
            return (
                503,
                {"error": str(exc), "type": "draining"},
                route,
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
            return 422, payload, route, {}
        except Exception as exc:  # noqa: BLE001 — the request boundary
            # A defect, not a client error: answer and count it as a
            # 500 (which dumps the flight recorder) instead of letting
            # http.server drop the connection unanswered.
            self.log.error(
                "unexpected route error",
                route=route,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
            return (
                500,
                {
                    "error": f"internal error ({type(exc).__name__})",
                    "type": "internal",
                },
                route,
                {},
            )

    # ------------------------------------------------------------------
    # read-only routes
    # ------------------------------------------------------------------
    def _healthz(self, req: _Request) -> _Reply:
        """Liveness: 200 for as long as the process can answer at all."""
        return 200, {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    def _readyz(self, req: _Request) -> _Reply:
        """Readiness: 503 once draining so balancers stop routing here."""
        if self.draining:
            return 503, {"status": "draining"}
        return 200, {"status": "ready"}

    def _metrics(self, req: _Request) -> _Reply:
        # Refresh the SLO burn gauges so every scrape (either format)
        # carries the current objective state.
        self.slo.evaluate()
        if "format=prometheus" in req.query:
            return 200, render_registry(self.registry)
        return 200, self.metrics.snapshot()

    def _slo(self, req: _Request) -> _Reply:
        return 200, self.slo.evaluate()

    def _recent(self, req: _Request) -> _Reply:
        """The flight recorder's newest records, for ``/debug/recent``."""
        limit: Optional[int] = None
        match = re.search(r"(?:^|&)limit=(\d+)", req.query)
        if match:
            try:
                limit = int(match.group(1))
            except ValueError:  # past the interpreter's digit limit
                raise _invalid(
                    f"limit must be a record count, got a "
                    f"{len(match.group(1))}-digit number"
                ) from None
        records = self.flight.recent(limit=limit)
        return 200, {
            "stats": self.flight.stats(),
            "records": records,
        }

    def _project(self, req: _Request) -> _Reply:
        return 200, self._entry(req.ident).to_dict()

    def _job_status(self, req: _Request) -> _Reply:
        return 200, self._job(req.ident).to_dict()

    def _job_cancel(self, req: _Request) -> _Reply:
        job = self._job(req.ident)
        self.jobs.cancel(job.id)
        return 202, job.to_dict()

    def _job_trace(self, req: _Request) -> _Reply:
        """The finished span records of one background job."""
        job = self._finished_job(req.ident, "its trace is")
        spans = job.artifacts.get("trace")
        if spans is None:
            raise ServiceError(
                404, f"job {job.id!r} recorded no trace"
            )
        return 200, {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "spans": spans,
        }

    def _job_explain(self, req: _Request) -> _Reply:
        """The per-constraint feasibility breakdown of one job."""
        job = self._finished_job(req.ident, "explain data is")
        explain = job.artifacts.get("explain")
        if explain is None:
            raise ServiceError(
                404,
                f"job {job.id!r} collected no explain data; submit the "
                'enumeration with {"explain": true} to collect it',
            )
        return 200, {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "explain": explain,
        }

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------
    def note_request(
        self,
        route: str,
        seconds: float,
        status: int,
        trace_id: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        """Account one finished HTTP request everywhere it belongs.

        Updates the metrics registry, appends a flight-recorder entry
        (with the raw ``path`` next to its route template), and — on any
        5xx — logs the failure and snapshots the flight buffer to
        ``flight_dir`` so the context around the error survives the
        process.
        """
        self.metrics.observe(route, seconds, status, trace_id=trace_id)
        self.flight.record(
            "request",
            route=route,
            path=path,
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

    def _dump_flight(
        self, reason: str, directory: Optional[str] = None
    ) -> Optional[str]:
        """Best-effort flight dump into ``directory`` or ``flight_dir``.

        Returns the path written, or None when neither is set or the
        write failed (logged, never raised).  The file name carries the
        process id, so servers sharing one directory never collide.
        """
        directory = directory or self.flight_dir
        if not directory:
            return None
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = (
            f"{directory}/flight-{stamp}-{os.getpid()}-"
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

    def _tally(self, block: str, **amounts: int) -> None:
        with self._tally_lock:
            counts = self._tallies[block]
            for key, amount in amounts.items():
                counts[key] += amount

    def _tally_snapshot(self, block: str) -> Dict[str, int]:
        with self._tally_lock:
            return dict(self._tallies[block])

    # ------------------------------------------------------------------
    # routes that do work
    # ------------------------------------------------------------------
    def _upload(self, req: _Request) -> _Reply:
        document = self._json_body(req.body)
        if not isinstance(document, dict):
            raise ServiceError(
                400, "project upload must be a JSON object"
            )
        entry, created = self.sessions.put(document)
        payload = entry.to_dict()
        payload["created"] = created
        return (201 if created else 200), payload

    def _check(self, req: _Request) -> _Reply:
        entry = self._entry(req.ident)
        options = self._options(req.body)
        heuristic = _heuristic(options, "iterative")
        prune = _option(options, "prune", "boolean", True)
        soft_deadline_s = _option(options, "soft_deadline_s", "number")
        if soft_deadline_s is not None:
            if soft_deadline_s <= 0:
                raise _invalid("soft_deadline_s must be positive")
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
            return 200, {
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
        return 200, {
            "project_id": entry.project_id,
            "cache_hit": hit,
            "result": result,
        }

    def _checked(self, entry: SessionEntry, **options: Any):
        """Run one check under the disk prediction cache, if configured.

        Seeds the session's prediction cache from disk before the check
        and persists the (possibly freshly computed) predictions after a
        miss — so an identical project checked after a restart, or by
        ``chop check`` on the same cache, skips BAD prediction entirely.
        Callers must hold ``entry.lock``.
        """
        options.setdefault("engine", self.engine)
        return check_with_cache(
            entry.session, self.disk_cache, **options
        ).result

    def _enumerate(self, req: _Request) -> _Reply:
        entry = self._entry(req.ident)
        options = self._options(req.body)
        heuristic = _heuristic(options, "enumeration")
        prune = _option(options, "prune", "boolean", True)
        explain = _option(options, "explain", "boolean", False)
        if explain and heuristic != "enumeration":
            raise _invalid(
                "explain collection requires the enumeration heuristic"
            )

        def work(job: Job) -> Dict[str, Any]:
            collector = ExplainCollector() if explain else None
            try:
                return self._checked(
                    entry,
                    heuristic=heuristic,
                    prune=prune,
                    cancel=job.should_stop,
                    progress=job.report_progress,
                    collector=collector,
                ).to_dict()
            finally:
                # Keep the explain report even when the search failed
                # or was cancelled — that is when the designer needs it.
                if collector is not None and collector.evaluated:
                    job.artifacts["explain"] = collector.report(
                        heuristic=heuristic
                    ).to_dict()

        return self._submit_job(req, entry, options, heuristic, work)

    def _auto(self, req: _Request) -> _Reply:
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

        entry = self._entry(req.ident)
        options = self._options(req.body)
        config = AutoPartitionConfig(
            chips=_option(options, "chips", "integer", 4),
            replicate=_option(options, "replicate", "boolean", False),
            max_clones=_option(options, "max_clones", "integer", 0),
            balance_tolerance=_option(
                options, "balance_tolerance", "number", 0.3
            ),
            feasibility_moves=_option(
                options, "feasibility_moves", "integer", 32
            ),
            heuristic=_heuristic(options, "iterative"),
        )
        include_assignment = _option(
            options, "include_assignment", "boolean", False
        )
        op_count = entry.session.graph.op_count()
        try:
            config.validate()
            if config.chips > op_count:
                # auto_partition would raise the same PartitioningError
                # inside the job; validating here turns a failed job
                # into an immediate, typed 400.
                raise PartitioningError(
                    f"cannot spread {op_count} operations over "
                    f"{config.chips} chips"
                )
        except PartitioningError as exc:
            raise _invalid(f"invalid auto option: {exc}") from None

        def work(job: Job) -> Dict[str, Any]:
            outcome = auto_partition(
                entry.session.graph,
                config,
                session_factory=session_like_factory(entry.session),
                engine=self.engine,
                progress=job.report_progress,
            )
            payload = outcome.to_dict()
            if include_assignment:
                payload["assignment"] = dict(outcome.assignment)
            self._tally(
                "auto",
                jobs=1,
                clones=payload["clones"],
                repair_moves=payload["repair_moves"],
                **{"feasible" if outcome.feasible else "infeasible": 1},
            )
            return payload

        return self._submit_job(req, entry, options, "auto", work)

    def _explore(self, req: _Request) -> _Reply:
        """Submit a background design-space sweep of one project.

        Options: ``k_min``/``k_max`` (or an explicit ``chip_counts``
        list), ``package_scales``, ``objectives``, ``seeding``
        (``heuristic`` | ``auto``), ``heuristic``, ``timeout_s``,
        ``include_projects`` (embed each front point's full project
        document — off by default, the documents are graph-sized).
        Candidate sessions inherit the project's designer inputs via
        :func:`repro.auto.partitioner.session_like_factory`; the sweep runs
        under the service engine and disk prediction cache, so repeated
        sweeps of the same project are warm.  Every bad option is an
        immediate 400 with ``type: invalid_option`` — the same contract
        as ``/auto`` — never a failed background job.
        """
        from repro.auto.partitioner import session_like_factory
        from repro.explore import ExploreConfig, explore

        entry = self._entry(req.ident)
        options = self._options(req.body)
        op_count = entry.session.graph.op_count()
        try:
            if "chip_counts" in options:
                chip_counts = _option(
                    options, "chip_counts", "array:integer", ()
                )
            else:
                k_min = _option(options, "k_min", "integer", 1)
                k_max = _option(options, "k_max", "integer", 4)
                if k_min > k_max:
                    raise ValueError(
                        f"k_min {k_min} exceeds k_max {k_max}"
                    )
                if k_max > op_count:
                    # Checked before the range is built: k_max comes
                    # from the client and may be astronomically large.
                    raise ValueError(
                        f"k_max {k_max} exceeds the graph's {op_count} "
                        f"operations"
                    )
                chip_counts = tuple(range(k_min, k_max + 1))
            config = ExploreConfig(
                chip_counts=chip_counts,
                package_scales=_option(
                    options, "package_scales", "array:number", (1.0,)
                ),
                objectives=_option(
                    options,
                    "objectives",
                    "array:string",
                    ("cost", "performance", "delay", "chips"),
                ),
                seeding=_option(options, "seeding", "string", "heuristic"),
                heuristic=_option(
                    options, "heuristic", "string", "iterative"
                ),
            )
            # op_count bounds the k axis: a sweep that cannot seed any
            # candidate is a client error, not a job failure.
            config.validate(op_count=op_count)
        except (ValueError, ChopError) as exc:
            raise _invalid(f"invalid explore option: {exc}") from None
        include_projects = _option(
            options, "include_projects", "boolean", False
        )

        def work(job: Job) -> Dict[str, Any]:
            result = explore(
                entry.session.graph,
                config,
                session_factory=session_like_factory(entry.session),
                engine=self.engine,
                disk_cache=self.disk_cache,
                progress=job.report_progress,
                cancel=job.should_stop,
            )
            payload = result.to_dict(include_projects=include_projects)
            payload["project_id"] = entry.project_id
            self._tally(
                "explore",
                jobs=1,
                candidates=result.evaluated,
                feasible=result.feasible,
                front_points=len(result.front),
                cache_seeded=result.cache_seeded,
            )
            return payload

        return self._submit_job(req, entry, options, "explore", work)

    def _submit_job(
        self,
        req: _Request,
        entry: SessionEntry,
        options: Dict[str, Any],
        kind: str,
        work: Callable[[Job], Any],
    ) -> _Reply:
        """Queue ``work(job)`` as a traced background job of ``entry``.

        The one job path of the enumerate, auto and explore routes: the
        ``X-Trace-Id`` and ``timeout_s`` are checked before anything is
        queued; the work runs under the session lock inside a
        ``service.job`` span; the span tree and a flight record are
        kept on every outcome — a failed or cancelled job is when the
        designer needs them most.
        """
        if req.trace_id is not None and not _TRACE_ID_RE.match(
            req.trace_id
        ):
            raise ServiceError(
                400,
                "X-Trace-Id must be 4-128 characters of "
                "[0-9A-Za-z._-] starting with an alphanumeric",
            )
        timeout_s = _option(options, "timeout_s", "number")
        tracer = Tracer(trace_id=req.trace_id)

        def run(job: Job) -> Any:
            started = time.perf_counter()
            try:
                with entry.lock, activate(tracer), tracer.span(
                    "service.job", job_id=job.id, kind=job.kind,
                ):
                    return work(job)
            finally:
                spans = job.artifacts["trace"] = tracer.spans()
                self.flight.record(
                    "job",
                    latency_ms=(time.perf_counter() - started) * 1000.0,
                    trace_id=tracer.trace_id,
                    spans=spans,
                    job_id=job.id,
                    job_kind=job.kind,
                )

        job = self.jobs.submit(
            run,
            kind=f"{kind}:{entry.project_id}",
            timeout_s=timeout_s,
            session_key=entry.project_id,
        )
        job.trace_id = tracer.trace_id
        return 202, job.to_dict()

    # ------------------------------------------------------------------
    # lookups and parsing
    # ------------------------------------------------------------------
    def _entry(self, project_id: str) -> SessionEntry:
        entry = self.sessions.get(project_id)
        if entry is None:
            raise ServiceError(
                404,
                f"unknown project {project_id!r}; upload it via "
                "POST /projects (ids expire under the LRU policy)",
            )
        return entry

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return job

    def _finished_job(self, job_id: str, artifact: str) -> Job:
        job = self._job(job_id)
        if job.state not in (DONE, FAILED, CANCELLED):
            raise ServiceError(
                409,
                f"job {job.id!r} is {job.state}; {artifact} available "
                "once it finishes",
            )
        return job

    @classmethod
    def _options(cls, body: Optional[bytes]) -> Dict[str, Any]:
        """A POST's options object; an empty body means all defaults.

        Read its values with :func:`_option`.
        """
        options = cls._json_body(body, {})
        if not isinstance(options, dict):
            raise _invalid(
                f"request options must be a JSON object, got "
                f"{type(options).__name__}"
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
        except (ValueError, RecursionError) as exc:
            # Bad UTF-8, bad JSON, or an integer past the interpreter's
            # digit limit — all of them ValueErrors — or nesting past
            # the parser's recursion limit.
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
    #: Seconds a connection may stall on any read or write; a body that
    #: stalls this long is answered 408.
    timeout = 30.0

    # Route through one dispatcher per method.
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _read_body(self) -> Optional[bytes]:
        """The request body, read only once its declared length is sane.

        The ``Content-Length`` header alone decides: a malformed or
        negative length is a 400 and one over the cap a 413, so an
        oversized body is never buffered into memory.  A body that ends
        before its declared length is a 400, and one that stalls past
        :attr:`timeout` a 408.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:  # not a number, or past the digit limit
            length = -1
        if length < 0:
            raise ServiceError(
                400,
                f"Content-Length must be a non-negative integer, got "
                f"{declared[:32]!r}",
                kind="invalid_content_length",
            )
        if length > self.service.max_body_bytes:
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.service.max_body_bytes} byte cap",
                kind="body_too_large",
            )
        if not length:
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise ServiceError(
                408,
                f"request body not received within {self.timeout:g} s",
                kind="body_timeout",
            ) from None
        if len(body) < length:
            raise ServiceError(
                400,
                f"request body ended after {len(body)} of the "
                f"{length} bytes its Content-Length declares",
                kind="incomplete_body",
            )
        return body

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        trace_id = self.headers.get("X-Trace-Id")
        try:
            body = self._read_body()
        except ServiceError as exc:
            # An unread or cut-short body makes the connection unusable
            # for keep-alive, so close it after answering.
            self.close_connection = True
            status, payload, route, extra = (
                exc.status,
                {"error": str(exc), "type": exc.kind},
                _resolve_route(method, self.path)[0],
                {},
            )
        else:
            status, payload, route, extra = self.service.handle(
                method, self.path, body, trace_id=trace_id
            )
        if isinstance(payload, str):
            # Pre-rendered text (the Prometheus exposition format).
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        # Account the request before answering it: a client that has
        # read the response must find it in its next /metrics scrape.
        self.service.note_request(
            route,
            time.perf_counter() - started,
            status,
            trace_id=trace_id,
            path=self.path,
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in extra.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before its answer; nobody is left to
            # read one, so drop it (the request is already counted).
            self.close_connection = True

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


# ----------------------------------------------------------------------
# the serve loop
# ----------------------------------------------------------------------
def _quiet(line: str) -> None:
    """An ``announce`` that drops the line."""


def _dump_on_signal(
    service: ChopService, announce: Callable[[str], None]
) -> Optional[str]:
    """The ``SIGUSR2`` action: dump the flight recorder now.

    Writes to the service's flight directory, or the working directory
    when none is configured.  Returns the path written (or None).
    """
    path = service._dump_flight("sigusr2", service.flight_dir or ".")
    if path:
        announce(f"flight recorder dumped to {path}")
    return path


def serve(
    service: ChopService,
    host: str = "127.0.0.1",
    port: int = 8080,
    announce: Callable[[str], None] = _quiet,
) -> None:
    """Run one server process until a signal drains it (``chop serve``).

    The first line passed to ``announce`` is the banner
    ``chop-repro serving on http://HOST:PORT (...)`` naming the port
    actually bound — ``port=0`` binds an ephemeral one, which wrappers
    parse from that line.  The drain progress lines follow it.

    ``SIGTERM`` and ``SIGINT`` start a graceful drain: admissions stop
    at once (``/readyz`` flips to 503, new ``POST`` s get the same),
    running jobs get the service's drain timeout to finish, stragglers
    are cancelled cooperatively, and only then does the server stop.
    ``SIGUSR2`` dumps the flight recorder (:func:`_dump_on_signal`)
    without interrupting traffic.  Each handler does its work on a
    helper thread so the signal returns at once; off the main thread
    none can be installed and the embedder drains the service itself.
    """
    server = make_server(service, host, port)
    stop_once = threading.Lock()

    def drain_and_stop() -> None:
        if not stop_once.acquire(blocking=False):
            return
        announce(
            f"draining: waiting up to {service.drain_timeout_s:g}s for "
            f"running jobs"
        )
        announce(f"drained: {service.drain()}")
        server.shutdown()

    actions = {
        "SIGTERM": drain_and_stop,
        "SIGINT": drain_and_stop,
        "SIGUSR2": lambda: _dump_on_signal(service, announce),
    }
    try:
        for name, action in actions.items():
            if hasattr(signal, name):  # SIGUSR2 is POSIX-only
                signal.signal(
                    getattr(signal, name),
                    lambda _signum, _frame, action=action: threading.Thread(
                        target=action, daemon=True
                    ).start(),
                )
    except ValueError:
        pass  # not the main thread; the embedder owns signal handling

    bound_port = server.server_address[1]
    search = (
        f"{service.engine.workers} search workers"
        if service.engine is not None
        else "in-process search"
    )
    disk = (
        f", disk cache {service.disk_cache.directory}"
        if service.disk_cache is not None
        else ""
    )
    announce(
        f"chop-repro serving on http://{host}:{bound_port} "
        f"({service.jobs.workers} job threads, {search}, "
        f"cache {service.cache.capacity}, "
        f"max {service.sessions.capacity} sessions, "
        f"queue cap {service.jobs.max_queued}, "
        f"drain {service.drain_timeout_s:g}s{disk})"
    )
    service.log.info(
        "service_started",
        host=host,
        port=bound_port,
        job_threads=service.jobs.workers,
        search_workers=(
            service.engine.workers if service.engine is not None else 0
        ),
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
