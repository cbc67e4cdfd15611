"""Multi-process serving front: one bound port, N worker processes.

The single-process server keeps three kinds of state: resident designer
sessions, the single-flight verdict cache, and the background job
registry.  Scaling out keeps that state **shared-nothing** — a parent
dispatcher binds the public port once and forks N workers, and a
deterministic *sticky routing* rule pins everything per-project to one
worker:

    ``owner(project) = int(project_id, 16) % workers``

where ``project_id`` is the leading 16 hex chars of
:func:`repro.io.project.project_fingerprint`.  Uploads hash the
document body, so a project lands on its owner no matter which worker
accepts the TCP connection; job ids carry a ``w{index}-`` prefix so
polling routes without shared state.  A worker that accepts a request
it does not own forwards it over loopback to the owner's *internal*
listener (which never re-forwards) and relays the response verbatim.
Predictions — the expensive, content-addressed half — are *not* sticky:
the shared cache backend (:class:`repro.cache.SharedPredictionCache`)
carries them fleet-wide through the filesystem.

Socket sharing uses ``SO_REUSEPORT`` where the platform offers it
(every worker gets its own accept queue, kernel load-balanced) and
falls back to accepting on the fork-inherited listening socket
elsewhere — both paths serve the one port the parent bound.

``GET /metrics`` on any worker aggregates the whole fleet: the serving
worker scrapes each peer's internal listener (``?scope=local``) and
merges the per-worker expositions into one lintable scrape with a
``worker`` label injected on every sample
(:func:`repro.obs.prometheus.merge_expositions`).  ``SIGTERM`` to the
parent fans out to every worker, each runs the PR-4 drain contract
(readyz 503, admissions refused, in-flight jobs settled, then exit),
and the parent exits 0 only when every worker drained cleanly.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import threading
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.logging import get_logger
from repro.obs.prometheus import merge_expositions
from repro.service.app import (
    ChopService,
    Response,
    _Handler,
    serve_until_drained,
)

try:
    from repro.io.project import project_fingerprint
except ImportError:  # pragma: no cover - circular-import guard
    project_fingerprint = None  # type: ignore[assignment]

#: Worker-count ceiling — keeps the injected ``worker`` metrics label
#: (and the fan-out of every aggregated scrape) cardinality-capped.
MAX_FLEET_WORKERS = 32

_JOB_PREFIX_RE = re.compile(r"^w(\d+)-")


class FleetRouter:
    """One worker's view of the fleet: ownership, forwarding, merging."""

    def __init__(
        self,
        index: int,
        internal_ports: Sequence[int],
        public_port: int,
        host: str = "127.0.0.1",
        forward_timeout_s: float = 600.0,
    ) -> None:
        if not 0 <= index < len(internal_ports):
            raise ValueError(
                f"worker index {index} out of range for "
                f"{len(internal_ports)} workers"
            )
        if len(internal_ports) > MAX_FLEET_WORKERS:
            raise ValueError(
                f"{len(internal_ports)} workers exceeds the "
                f"{MAX_FLEET_WORKERS}-worker fleet cap"
            )
        self.index = index
        self.internal_ports = tuple(internal_ports)
        self.public_port = public_port
        self.host = host
        self.forward_timeout_s = forward_timeout_s
        self._lock = threading.Lock()
        self._forwarded = 0
        self._forward_failures = 0
        self._scrape_errors = 0

    @property
    def workers(self) -> int:
        return len(self.internal_ports)

    @property
    def job_prefix(self) -> str:
        """Job-id prefix that names this worker (``w{index}-``)."""
        return f"w{self.index}-"

    # ------------------------------------------------------------------
    # the sticky-routing rule
    # ------------------------------------------------------------------
    def owner_of_fingerprint(self, fingerprint: str) -> int:
        """The worker that owns a project fingerprint's session state."""
        return int(fingerprint[:16], 16) % self.workers

    def owner_of_project(self, project_id: str) -> Optional[int]:
        """Owner of a project id (16 hex chars), or None if malformed.

        Malformed ids route locally — any worker answers the 404.
        """
        try:
            return int(project_id, 16) % self.workers
        except ValueError:
            return None

    def owner_of_job(self, job_id: str) -> Optional[int]:
        """Owner encoded in a ``w{index}-job-N`` id, or None."""
        match = _JOB_PREFIX_RE.match(job_id)
        if match is None:
            return None
        index = int(match.group(1))
        return index if index < self.workers else None

    def owner_for(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Optional[int]:
        """The owning worker of one request, or None for local routes.

        Only session- and job-addressed routes are sticky; liveness,
        readiness, metrics, SLO and debug routes answer locally.
        """
        parts = [p for p in path.partition("?")[0].split("/") if p]
        if not parts:
            return None
        if parts[0] == "projects":
            if len(parts) == 1 and method == "POST":
                if project_fingerprint is None or not body:
                    return None
                try:
                    document = json.loads(body.decode("utf-8"))
                    fingerprint = project_fingerprint(document)
                except Exception:
                    # Malformed uploads are a local 400.
                    return None
                return self.owner_of_fingerprint(fingerprint)
            if len(parts) >= 2:
                return self.owner_of_project(parts[1])
        if parts[0] == "jobs" and len(parts) >= 2:
            return self.owner_of_job(parts[1])
        return None

    # ------------------------------------------------------------------
    # loopback forwarding
    # ------------------------------------------------------------------
    def forward(
        self,
        owner: int,
        method: str,
        path: str,
        body: Optional[bytes],
        trace_id: Optional[str] = None,
    ) -> Response:
        """Relay one request to its owner's internal listener.

        The owner's response — status, JSON payload or pre-rendered
        text, and backpressure headers — comes back verbatim; the local
        route label collapses to ``(forwarded)`` so per-route metrics
        are counted once, on the owner.  An unreachable owner is a 502
        ``fleet_forward`` error (the worker died mid-drain or crashed;
        the balancer retry lands on a live worker whose forward will
        fail the same way until the fleet restarts).
        """
        url = (
            f"http://{self.host}:{self.internal_ports[owner]}{path}"
        )
        headers: Dict[str, str] = {"X-Chop-Fleet-Internal": "1"}
        if trace_id:
            headers["X-Trace-Id"] = trace_id
        data = body if method == "POST" else None
        if method == "POST" and data is None:
            data = b""
        request = urllib.request.Request(
            url, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.forward_timeout_s
            ) as response:
                raw = response.read()
                status = response.status
                response_headers = response.headers
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status = exc.code
            response_headers = exc.headers
        except (urllib.error.URLError, OSError) as exc:
            with self._lock:
                self._forward_failures += 1
            return (
                502,
                {
                    "error": (
                        f"worker {owner} (owner of {method} {path}) "
                        f"is unreachable: {exc}"
                    ),
                    "type": "fleet_forward",
                },
                "(forwarded)",
                {},
            )
        with self._lock:
            self._forwarded += 1
        content_type = response_headers.get("Content-Type") or ""
        if "json" in content_type:
            try:
                payload: Any = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = raw.decode("utf-8", "replace")
        else:
            payload = raw.decode("utf-8", "replace")
        extra = {}
        for name in ("Retry-After", "X-Chop-Worker"):
            value = response_headers.get(name)
            if value:
                extra[name] = value
        return status, payload, "(forwarded)", extra

    # ------------------------------------------------------------------
    # fleet-wide /metrics
    # ------------------------------------------------------------------
    def _fetch(self, worker: int, path: str) -> bytes:
        url = f"http://{self.host}:{self.internal_ports[worker]}{path}"
        request = urllib.request.Request(
            url, headers={"X-Chop-Fleet-Internal": "1"}
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.read()

    def _peer_texts(self, path: str) -> List[Tuple[int, Optional[bytes]]]:
        out: List[Tuple[int, Optional[bytes]]] = []
        for worker in range(self.workers):
            if worker == self.index:
                continue
            try:
                out.append((worker, self._fetch(worker, path)))
            except (urllib.error.URLError, OSError):
                with self._lock:
                    self._scrape_errors += 1
                out.append((worker, None))
        return out

    def aggregate_prometheus(self, local_text: str) -> str:
        """Merge every worker's exposition into one lintable scrape."""
        expositions: List[Tuple[str, str]] = [
            (str(self.index), local_text)
        ]
        peers = self._peer_texts("/metrics?format=prometheus&scope=local")
        for worker, raw in peers:
            if raw is not None:
                expositions.append((str(worker), raw.decode("utf-8")))
        expositions.sort(key=lambda pair: int(pair[0]))
        return merge_expositions(expositions, label="worker")

    def aggregate_json(self, local_snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Fleet JSON metrics: per-worker snapshots plus router stats."""
        workers: Dict[str, Any] = {str(self.index): local_snapshot}
        for worker, raw in self._peer_texts("/metrics?scope=local"):
            if raw is None:
                workers[str(worker)] = {"error": "unreachable"}
                continue
            try:
                workers[str(worker)] = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                workers[str(worker)] = {"error": "undecodable"}
        return {"fleet": self.stats(), "workers": workers}

    def stats(self) -> Dict[str, Any]:
        """Router gauges for the ``fleet`` metrics block."""
        with self._lock:
            return {
                "workers": self.workers,
                "index": self.index,
                "forwarded": self._forwarded,
                "forward_failures": self._forward_failures,
                "scrape_errors": self._scrape_errors,
            }


# ----------------------------------------------------------------------
# sockets and servers
# ----------------------------------------------------------------------
def bind_public_socket(
    host: str, port: int, reuseport: bool = False
) -> socket.socket:
    """Bind and listen on the fleet's public address (port 0 allowed).

    ``reuseport`` marks the socket ``SO_REUSEPORT`` where the platform
    has it — a later listener (a forked worker building its own accept
    queue) may then bind the same address; every socket on the address
    must carry the option, so the parent sets it up front.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuseport and hasattr(socket, "SO_REUSEPORT"):
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        except OSError:
            pass  # fall back to sharing the inherited descriptor
    sock.bind((host, port))
    sock.listen(128)
    return sock


def _reuseport_listener(host: str, port: int) -> Optional[socket.socket]:
    """A fresh SO_REUSEPORT listener on (host, port), or None."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return None
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
    except OSError:
        sock.close()
        return None
    return sock


def server_over(
    sock: socket.socket, service: ChopService, internal: bool = False
) -> ThreadingHTTPServer:
    """A threading HTTP server accepting on an already-bound socket."""
    handler = type(
        "ChopFleetHandler",
        (_Handler,),
        {"service": service, "internal": internal},
    )
    host, port = sock.getsockname()[:2]
    server = ThreadingHTTPServer(
        (host, port), handler, bind_and_activate=False
    )
    server.socket.close()  # replace the unbound placeholder socket
    server.socket = sock
    server.server_address = (host, port)
    server.server_name = host
    server.server_port = port
    server.daemon_threads = True
    return server


# ----------------------------------------------------------------------
# worker process body
# ----------------------------------------------------------------------
def _run_worker(
    index: int,
    public_sock: socket.socket,
    internal_sock: socket.socket,
    internal_ports: Sequence[int],
    public_addr: Tuple[str, int],
    make_service: Callable[[FleetRouter], ChopService],
    ready_fd: int,
) -> None:
    """Everything one forked worker does; never returns (``os._exit``)."""
    log = get_logger("fleet")
    exit_code = 1
    try:
        host, port = public_addr
        own = _reuseport_listener(host, port)
        if own is not None:
            # SO_REUSEPORT path: this worker gets its own kernel accept
            # queue; drop the fork-inherited descriptor.
            public_sock.close()
            public_sock = own
        router = FleetRouter(
            index=index,
            internal_ports=internal_ports,
            public_port=port,
            host="127.0.0.1",
        )
        service = make_service(router)

        def ready() -> None:
            # Signal handlers and listeners are live; parent may let go.
            os.write(ready_fd, b"x")
            os.close(ready_fd)

        serve_until_drained(
            service,
            [
                server_over(public_sock, service, internal=False),
                server_over(internal_sock, service, internal=True),
            ],
            ready,
        )
        exit_code = 0
    except Exception as exc:  # pragma: no cover - crash diagnostics
        log.error("fleet worker crashed", worker=index, error=str(exc))
    finally:
        os._exit(exit_code)


# ----------------------------------------------------------------------
# parent dispatcher
# ----------------------------------------------------------------------
def serve_fleet(
    make_service: Callable[[FleetRouter], ChopService],
    host: str = "127.0.0.1",
    port: int = 8080,
    procs: int = 2,
    announce: Optional[Callable[[str], None]] = None,
) -> int:
    """Bind once, fork ``procs`` workers, supervise until drained.

    The parent holds no service state — it binds the public socket,
    pre-binds one loopback *internal* socket per worker (the forwarding
    and scrape plane), forks, and then only relays signals: ``SIGTERM``
    / ``SIGINT`` fan out to every worker, which runs the standard drain
    and exits.  Returns 0 only when every worker exited 0 — the fleet
    drain contract CI asserts.

    ``make_service`` runs *in the worker process, after the fork* with
    that worker's :class:`FleetRouter`; the parent never constructs a
    service, so no threads or pools leak across ``fork()``.
    """
    if not 1 <= procs <= MAX_FLEET_WORKERS:
        raise ValueError(
            f"procs must be in 1..{MAX_FLEET_WORKERS}, got {procs}"
        )
    if not hasattr(os, "fork"):
        raise RuntimeError(
            "this platform cannot fork; run one process per port "
            "behind an external balancer instead"
        )
    log = get_logger("fleet")
    public_sock = bind_public_socket(host, port, reuseport=True)
    bound_host, bound_port = public_sock.getsockname()[:2]
    internal_socks = [
        bind_public_socket("127.0.0.1", 0) for _ in range(procs)
    ]
    internal_ports = tuple(
        sock.getsockname()[1] for sock in internal_socks
    )
    read_fd, write_fd = os.pipe()
    children: List[int] = []
    for index in range(procs):
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            for other, sock in enumerate(internal_socks):
                if other != index:
                    sock.close()
            _run_worker(
                index,
                public_sock,
                internal_socks[index],
                internal_ports,
                (bound_host, bound_port),
                make_service,
                write_fd,
            )
            raise AssertionError("worker returned")  # pragma: no cover
        children.append(pid)
    os.close(write_fd)

    # Wait for every worker's listeners before releasing the parent's
    # copies — on the SO_REUSEPORT path the inherited descriptor must
    # stay open until each worker has bound its own queue.
    ready = 0
    while ready < procs:
        chunk = os.read(read_fd, procs - ready)
        if not chunk:
            break
        ready += len(chunk)
    os.close(read_fd)
    public_sock.close()
    for sock in internal_socks:
        sock.close()

    # Announce only now: every worker has its listeners live, so the
    # banner doubles as the readiness signal — a client that connects
    # right after reading it cannot land in the parent's (now closed)
    # accept queue and be reset.
    if announce is not None:
        announce(
            f"chop-repro serving on http://{bound_host}:{bound_port} "
            f"({procs} workers, internal ports {list(internal_ports)})"
        )

    terminated = threading.Event()

    def _fan_out(signum: Any, frame: Any) -> None:
        if terminated.is_set():
            return
        terminated.set()
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGTERM, _fan_out)
    signal.signal(signal.SIGINT, _fan_out)

    exit_codes: Dict[int, int] = {}
    for pid in children:
        while True:
            try:
                _, status = os.waitpid(pid, 0)
            except InterruptedError:
                continue
            except ChildProcessError:
                status = 0
            break
        exit_codes[pid] = os.waitstatus_to_exitcode(status)
    failures = {
        pid: code for pid, code in exit_codes.items() if code != 0
    }
    if failures:
        log.error("fleet workers exited non-zero", failures=str(failures))
        return 1
    return 0
