"""End-to-end tests of the HTTP/JSON server over a real socket."""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import experiment1_session
from repro.io.project import session_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.service import ChopService, make_server
from repro.service.app import _Handler, _dump_on_signal
from tests.test_io_properties import HOSTILE_EDITS, mutated


@pytest.fixture(scope="module")
def project_doc():
    return session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )


@contextlib.contextmanager
def serving(service):
    """Serve ``service`` on an ephemeral port; yields the server."""
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(5)


@pytest.fixture()
def server():
    # A private registry: route counts are registry-scoped, and the
    # assertions below count this server's requests only.
    service = ChopService(
        workers=1, job_timeout_s=60.0, registry=MetricsRegistry()
    )
    with serving(service) as httpd:
        yield service, httpd.server_address[1]


def request(port, method, path, payload=None, timeout=60):
    body = None if payload is None else json.dumps(payload).encode()
    return raw_request(port, method, path, body, timeout)


def raw_request(port, method, path, body, timeout=60):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def poll_job(port, job_id, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = request(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} did not finish")


class TestRoundTrip:
    def test_upload_check_enumerate_poll(self, server, project_doc):
        service, port = server

        status, project = request(port, "POST", "/projects", project_doc)
        assert status == 201
        assert project["created"] is True
        assert project["partitions"] == ["P1", "P2"]
        pid = project["project_id"]

        # Idempotent re-upload finds the resident session.
        status, again = request(port, "POST", "/projects", project_doc)
        assert status == 200
        assert again["created"] is False
        assert again["project_id"] == pid

        status, described = request(port, "GET", f"/projects/{pid}")
        assert status == 200
        assert described["fingerprint"].startswith(pid)

        status, check = request(
            port, "POST", f"/projects/{pid}/check",
            {"heuristic": "iterative"},
        )
        assert status == 200
        assert check["cache_hit"] is False
        assert check["result"]["feasible"] is True
        assert check["result"]["best"]["initiation_interval"] > 0

        status, job = request(
            port, "POST", f"/projects/{pid}/enumerate",
            {"heuristic": "enumeration"},
        )
        assert status == 202
        finished = poll_job(port, job["job_id"])
        assert finished["state"] == "done"
        assert finished["result"]["heuristic"] == "enumeration"
        assert finished["result"]["feasible"] is True
        assert finished["result"]["trials"] > 0

    def test_health_and_errors(self, server, project_doc):
        service, port = server
        status, health = request(port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

        status, err = request(port, "GET", "/projects/unknown")
        assert status == 404 and "unknown project" in err["error"]

        status, err = request(port, "GET", "/jobs/job-99")
        assert status == 404

        status, err = request(port, "POST", "/projects", ["not", "a", "doc"])
        assert status == 400

        broken = dict(project_doc)
        broken["partitions"] = [
            {**p} for p in project_doc["partitions"]
        ]
        del broken["partitions"][0]["chip"]
        status, err = request(port, "POST", "/projects", broken)
        assert status == 400
        assert "malformed project document" in err["error"]

        # Non-finite numbers and non-string names.
        for path, value in HOSTILE_EDITS:
            status, err = request(
                port, "POST", "/projects", mutated(project_doc, path, value)
            )
            assert status == 400, (path, value)
            assert err["type"] == "specification", (path, value)

        # Raw bytes that are not JSON at all, and an integer with more
        # digits than the interpreter will parse.
        for raw in (b"{nope", b'{"graph": ' + b"1" * 5000 + b"}"):
            status, err = raw_request(port, "POST", "/projects", raw)
            assert status == 400, raw[:20]

        status, pid_doc = request(port, "POST", "/projects", project_doc)
        pid = pid_doc["project_id"]
        status, err = request(
            port, "POST", f"/projects/{pid}/check",
            {"heuristic": "simulated-annealing"},
        )
        assert status == 400 and "unknown heuristic" in err["error"]
        assert err["type"] == "invalid_option"

        # Options are read as their JSON types: no string is iterated,
        # truncated or truth-tested into a value.
        for route, options, name in (
            ("explore", {"chip_counts": "12"}, "chip_counts"),
            ("explore", {"chip_counts": [2.9]}, "chip_counts"),
            ("explore", {"package_scales": [math.inf]}, "package_scales"),
            ("explore", {"objectives": "cost"}, "objectives"),
            ("explore", {"include_projects": "yes"}, "include_projects"),
            ("explore", {"k_max": 10**12}, "k_max"),
            ("auto", {"chips": 2.9}, "chips"),
            ("auto", {"chips": True}, "chips"),
            ("auto", {"replicate": "no"}, "replicate"),
            ("auto", {"balance_tolerance": "0.3"}, "balance_tolerance"),
            ("auto", {"include_assignment": "yes"}, "include_assignment"),
            ("check", {"prune": "false"}, "prune"),
            ("enumerate", {"explain": "false", "heuristic": "iterative"},
             "explain"),
        ):
            status, err = request(
                port, "POST", f"/projects/{pid}/{route}", options
            )
            assert status == 400, (route, options, err)
            assert err["type"] == "invalid_option", (route, options, err)
            assert name in err["error"], (route, options, err)

        # Option bodies must be JSON objects, and deadlines finite.
        for route in ("check", "enumerate", "auto", "explore"):
            for body in (b"null", b"[]", b'"x"', b"3"):
                status, err = raw_request(
                    port, "POST", f"/projects/{pid}/{route}", body
                )
                assert status == 400, (route, body)
                assert err["type"] == "invalid_option"
            option = "soft_deadline_s" if route == "check" else "timeout_s"
            for bad in ("nan", "inf", float("nan"), float("-inf")):
                status, err = request(
                    port, "POST", f"/projects/{pid}/{route}", {option: bad}
                )
                assert status == 400, (route, bad)
                assert err["type"] == "invalid_option"
                assert option in err["error"]


def _upload_head(length):
    return b"POST /projects HTTP/1.1\r\nContent-Length: %d\r\n" % length


_NESTED = b"[" * 200_000
_UNSORTABLE = json.dumps({"partitions": [{"ops": [1, "a"]}]}).encode()

#: Requests whose framing, body or query the server cannot read, sent
#: byte for byte and then half-closed: ``(request head, body, route
#: label, error type)``.
MALFORMED_REQUESTS = [
    (
        b"POST /projects HTTP/1.1\r\nContent-Length: abc\r\n",
        b"",
        "POST /projects",
        "invalid_content_length",
    ),
    (
        b"POST /projects HTTP/1.1\r\nContent-Length: -5\r\n",
        b"",
        "POST /projects",
        "invalid_content_length",
    ),
    (
        b"GET /debug/recent?limit=" + b"7" * 5000 + b" HTTP/1.1\r\n",
        b"",
        "GET /debug/recent",
        "invalid_option",
    ),
    (_upload_head(10), b"{}", "POST /projects", "incomplete_body"),
    (_upload_head(len(_NESTED)), _NESTED, "POST /projects", "service"),
    (
        _upload_head(len(_UNSORTABLE)),
        _UNSORTABLE,
        "POST /projects",
        "specification",
    ),
]


@pytest.mark.parametrize(
    "head,body,route,kind", MALFORMED_REQUESTS,
    ids=[
        "content-length-abc", "content-length-negative", "limit-digits",
        "short-body", "nested-arrays", "unsortable-ops",
    ],
)
def test_malformed_request_is_an_accounted_400(
    server, head, body, route, kind
):
    service, port = server
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + b"Connection: close\r\n\r\n" + body)
        sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        response.begin()
        status, err = response.status, json.loads(response.read())
    assert status == 400
    assert err["type"] == kind
    _, metrics = request(port, "GET", "/metrics")
    assert metrics["routes"][route]["count"] == 1
    assert metrics["responses_by_status"]["400"] == 1


def test_stalled_body_is_an_accounted_408(server, monkeypatch):
    service, port = server
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(_upload_head(10) + b"\r\n{}")
        response = http.client.HTTPResponse(sock)
        response.begin()
        status, err = response.status, json.loads(response.read())
        assert sock.recv(1) == b""  # the server closed the connection
    assert status == 408
    assert err["type"] == "body_timeout"
    _, metrics = request(port, "GET", "/metrics")
    assert metrics["routes"]["POST /projects"]["count"] == 1
    assert metrics["responses_by_status"]["408"] == 1


def test_unexpected_route_error_is_an_accounted_500(tmp_path, monkeypatch):
    service = ChopService(
        workers=1, registry=MetricsRegistry(), flight_dir=str(tmp_path)
    )

    def defect(req):
        raise KeyError("not a client error")

    monkeypatch.setattr(service, "_project", defect)
    with serving(service) as httpd:
        port = httpd.server_address[1]
        status, err = request(port, "GET", "/projects/abc")
        assert status == 500
        assert err == {"error": "internal error (KeyError)",
                       "type": "internal"}
        _, metrics = request(port, "GET", "/metrics")
    assert metrics["routes"]["GET /projects/{id}"]["count"] == 1
    assert metrics["responses_by_status"]["500"] == 1
    assert len(list(tmp_path.glob("flight-*-5xx.json"))) == 1


def test_reply_to_a_gone_client_is_dropped_quietly():
    service = ChopService(workers=1, registry=MetricsRegistry())
    entered, release = threading.Event(), threading.Event()

    def slow_healthz(req):
        entered.set()
        release.wait(10)
        return 200, {"status": "ok"}

    service._healthz = slow_healthz
    with serving(service) as httpd:
        errors, finished = [], threading.Event()
        httpd.handle_error = lambda *_: errors.append(sys.exc_info()[1])
        close_request = httpd.shutdown_request

        def shutdown_request(request):
            close_request(request)
            finished.set()

        httpd.shutdown_request = shutdown_request
        sock = socket.create_connection(httpd.server_address, timeout=10)
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert entered.wait(10)
        # Reset rather than close, so the reply write fails at once.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        release.set()
        assert finished.wait(10)
    assert errors == []
    assert service.metrics.snapshot()["routes"]["GET /healthz"]["count"] == 1


#: The documented options of each option route and the JSON types each
#: accepts; ``null`` means "unset" only where the default is unset.
NUMBER = {"integer", "float"}
OPTIONAL_NUMBER = NUMBER | {"null"}
OPTION_TYPES = {
    "check": {
        "heuristic": {"string"},
        "prune": {"boolean"},
        "soft_deadline_s": OPTIONAL_NUMBER,
    },
    "enumerate": {
        "heuristic": {"string"},
        "prune": {"boolean"},
        "explain": {"boolean"},
        "timeout_s": OPTIONAL_NUMBER,
    },
    "auto": {
        "chips": {"integer"},
        "replicate": {"boolean"},
        "max_clones": {"integer"},
        "balance_tolerance": NUMBER,
        "feasibility_moves": {"integer"},
        "heuristic": {"string"},
        "timeout_s": OPTIONAL_NUMBER,
        "include_assignment": {"boolean"},
    },
    "explore": {
        "k_min": {"integer"},
        "k_max": {"integer"},
        "chip_counts": {"array"},
        "package_scales": {"array"},
        "objectives": {"array"},
        "seeding": {"string"},
        "heuristic": {"string"},
        "timeout_s": OPTIONAL_NUMBER,
        "include_projects": {"boolean"},
    },
}
VALID_OPTIONS = {
    "check": {},
    "enumerate": {},
    "auto": {"chips": 2},
    "explore": {"k_min": 1, "k_max": 2},
}
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-3, 3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "array": st.lists(st.integers(1, 3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


@st.composite
def wrong_option(draw, route):
    name = draw(st.sampled_from(sorted(OPTION_TYPES[route])))
    wrong = sorted(set(JSON_VALUES) - OPTION_TYPES[route][name])
    return name, draw(JSON_VALUES[draw(st.sampled_from(wrong))])


@pytest.fixture(scope="module")
def resident_project(project_doc):
    service = ChopService(workers=1, registry=MetricsRegistry())
    body = json.dumps(project_doc).encode()
    _status, project, _route, _headers = service.handle(
        "POST", "/projects", body
    )
    yield service, project["project_id"]
    service.close()


@pytest.mark.parametrize("route", sorted(OPTION_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wrong_json_type_is_an_invalid_option_400(
    resident_project, route, data
):
    """Property: one documented option of a valid body set to a value
    of a wrong JSON type is a 400 ``invalid_option`` naming it."""
    service, pid = resident_project
    name, value = data.draw(wrong_option(route))
    body = dict(VALID_OPTIONS[route], **{name: value})
    status, payload, _route, _headers = service.handle(
        "POST", f"/projects/{pid}/{route}", json.dumps(body).encode()
    )
    assert status == 400, (body, payload)
    assert payload["type"] == "invalid_option", (body, payload)
    assert name in payload["error"], (body, payload)


class TestConcurrencyAndCache:
    def test_eight_concurrent_checks_and_warm_cache(
        self, server, project_doc
    ):
        """The acceptance scenario: >= 8 concurrent checks answer
        correctly, and the warm path is measurably faster than cold."""
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        barrier = threading.Barrier(8)
        results = []
        errors = []

        def check():
            try:
                barrier.wait(10)
                results.append(
                    request(
                        port, "POST", f"/projects/{pid}/check",
                        {"heuristic": "iterative"},
                    )
                )
            except Exception as exc:  # noqa: BLE001 — collect for assert
                errors.append(exc)

        cold_started = time.perf_counter()
        threads = [threading.Thread(target=check) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        cold_elapsed = time.perf_counter() - cold_started

        assert not errors
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        bodies = [body["result"] for _, body in results]
        assert all(body == bodies[0] for body in bodies)
        assert bodies[0]["feasible"] is True
        # Single-flight: the 8 racing identical requests computed once.
        hit_flags = sorted(body["cache_hit"] for _, body in results)
        assert hit_flags == [False] + [True] * 7

        _, metrics = request(port, "GET", "/metrics")
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["hits"] == 7

        # A later identical check is a pure cache hit — and fast.
        warm_started = time.perf_counter()
        status, warm = request(
            port, "POST", f"/projects/{pid}/check",
            {"heuristic": "iterative"},
        )
        warm_elapsed = time.perf_counter() - warm_started
        assert status == 200 and warm["cache_hit"] is True
        _, metrics = request(port, "GET", "/metrics")
        assert metrics["cache"]["hits"] == 8
        assert metrics["cache"]["misses"] == 1
        assert warm_elapsed < cold_elapsed

        # The /metrics snapshot carries per-route latency percentiles.
        route = metrics["routes"]["POST /projects/{id}/check"]
        assert route["count"] == 9
        assert route["latency_ms"]["p95"] >= route["latency_ms"]["p50"]

    def test_distinct_options_do_not_share_cache(
        self, server, project_doc
    ):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]
        _, first = request(
            port, "POST", f"/projects/{pid}/check",
            {"heuristic": "iterative"},
        )
        _, second = request(
            port, "POST", f"/projects/{pid}/check",
            {"heuristic": "enumeration"},
        )
        assert first["cache_hit"] is False
        assert second["cache_hit"] is False
        assert first["result"]["heuristic"] == "iterative"
        assert second["result"]["heuristic"] == "enumeration"


class TestObservability:
    def test_traced_job_serves_trace_and_explain(
        self, server, project_doc
    ):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        # Propagate a client trace id through the X-Trace-Id header.
        body = json.dumps(
            {"heuristic": "enumeration", "explain": True}
        ).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/projects/{pid}/enumerate",
            data=body,
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": "client-trace-42",
            },
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 202
            job = json.loads(resp.read())
        assert job["trace_id"] == "client-trace-42"

        finished = poll_job(port, job["job_id"])
        assert finished["state"] == "done"
        assert finished["trace_id"] == "client-trace-42"

        status, trace = request(
            port, "GET", f"/jobs/{job['job_id']}/trace"
        )
        assert status == 200
        assert trace["trace_id"] == "client-trace-42"
        names = {span["name"] for span in trace["spans"]}
        assert {
            "service.job", "session.check", "search.enumeration",
        } <= names
        assert all(
            span["trace_id"] == "client-trace-42"
            for span in trace["spans"]
        )
        job_span = next(
            s for s in trace["spans"] if s["name"] == "service.job"
        )
        assert job_span["attrs"]["job_id"] == job["job_id"]

        status, explain = request(
            port, "GET", f"/jobs/{job['job_id']}/explain"
        )
        assert status == 200
        doc = explain["explain"]
        assert doc["evaluated"] == finished["result"]["trials"]
        assert doc["feasible"] + doc["infeasible"] == doc["evaluated"]
        assert isinstance(doc["constraints"], dict)

    def test_untraced_explain_404_and_invalid_trace_id_400(
        self, server, project_doc
    ):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        # Default enumerate: traced but no explain collection.
        status, job = request(
            port, "POST", f"/projects/{pid}/enumerate", {}
        )
        assert status == 202
        assert job["trace_id"]  # server-assigned
        poll_job(port, job["job_id"])
        status, trace = request(
            port, "GET", f"/jobs/{job['job_id']}/trace"
        )
        assert status == 200 and trace["spans"]
        status, err = request(
            port, "GET", f"/jobs/{job['job_id']}/explain"
        )
        assert status == 404 and "explain" in err["error"]

        # Malformed client trace id is rejected up front.
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/projects/{pid}/enumerate",
            data=b"{}",
            method="POST",
            headers={"X-Trace-Id": "!!bad id!!"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

        # Explain only rides the enumeration heuristic.
        status, err = request(
            port, "POST", f"/projects/{pid}/enumerate",
            {"heuristic": "iterative", "explain": True},
        )
        assert status == 400

    def test_trace_of_running_job_conflicts(self, server, project_doc):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]
        # Pin the single job worker so the enumerate stays queued.
        release = threading.Event()
        blocker = service.jobs.submit(
            lambda should_stop: release.wait(30)
        )
        try:
            status, job = request(
                port, "POST", f"/projects/{pid}/enumerate", {}
            )
            assert status == 202
            status, err = request(
                port, "GET", f"/jobs/{job['job_id']}/trace"
            )
            assert status == 409
            status, err = request(
                port, "GET", f"/jobs/{job['job_id']}/explain"
            )
            assert status == 409
        finally:
            release.set()
        poll_job(port, job["job_id"])
        service.jobs.wait(blocker.id)

    def test_metrics_process_block_and_prometheus_format(
        self, server, project_doc
    ):
        service, port = server
        _, _ = request(port, "GET", "/healthz")

        status, metrics = request(port, "GET", "/metrics")
        assert status == 200
        process = metrics["process"]
        assert process["uptime_seconds"] >= 0
        # ISO-8601 UTC timestamp.
        assert process["started_at"].endswith("+00:00")
        assert "T" in process["started_at"]
        if "peak_rss_bytes" in process:  # absent on odd platforms
            assert process["peak_rss_bytes"] > 0

        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/metrics?format=prometheus"
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE chop_requests_total counter" in text
        assert "chop_requests_total " in text
        assert "chop_process_uptime_seconds " in text
        # Route labels are escaped strings.
        assert 'chop_route_requests_total{route="GET /healthz"}' in text

    def test_prometheus_histogram_and_slo_lines(
        self, server, project_doc
    ):
        service, port = server
        for _ in range(3):
            request(port, "GET", "/healthz")

        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/metrics?format=prometheus"
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            text = resp.read().decode()
        # The request-latency histogram renders the standard triplet
        # with route and status-class labels.
        assert "# TYPE chop_request_latency_seconds histogram" in text
        assert (
            'chop_request_latency_seconds_bucket{class="2xx",le="+Inf"'
            ',route="GET /healthz"}' in text
        )
        assert (
            'chop_request_latency_seconds_count{class="2xx"'
            ',route="GET /healthz"}' in text
        )
        assert (
            'chop_request_latency_seconds_sum{class="2xx"'
            ',route="GET /healthz"}' in text
        )
        # SLO burn gauges ride along in the same exposition.
        assert 'chop_slo_burn_ratio{slo="latency_p95"}' in text
        assert 'chop_slo_ok{slo="error_rate"} 1' in text
        # Flight-recorder gauges come from its stats supplier.
        assert "chop_flight_resident " in text

    def test_slo_endpoint(self, server, project_doc):
        service, port = server
        request(port, "GET", "/healthz")
        status, doc = request(port, "GET", "/slo")
        assert status == 200
        assert doc["ok"] is True
        kinds = {o["kind"] for o in doc["objectives"]}
        assert kinds == {"latency", "error_rate"}
        latency = next(
            o for o in doc["objectives"] if o["kind"] == "latency"
        )
        assert latency["measured_s"] is not None
        assert latency["burn"] <= 1.0

    def test_debug_recent_records_requests_and_jobs(
        self, server, project_doc
    ):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]
        status, job = request(
            port, "POST", f"/projects/{pid}/enumerate", {}
        )
        assert status == 202
        poll_job(port, job["job_id"])

        status, doc = request(port, "GET", "/debug/recent")
        assert status == 200
        assert doc["stats"]["recorded"] >= 2
        kinds = {r["kind"] for r in doc["records"]}
        assert "request" in kinds
        assert "job" in kinds
        job_record = next(
            r for r in doc["records"] if r["kind"] == "job"
        )
        assert job_record["job_id"] == job["job_id"]
        assert job_record["top_spans"]
        # ?limit=N truncates to the newest N records.
        status, limited = request(
            port, "GET", "/debug/recent?limit=1"
        )
        assert len(limited["records"]) == 1
        assert (
            limited["records"][0]["seq"]
            == max(r["seq"] for r in doc["records"] + limited["records"])
        )

    def test_flight_dump_written_on_5xx(self, project_doc, tmp_path):
        service = ChopService(
            workers=1, flight_dir=str(tmp_path / "flights")
        )
        try:
            # A 503 (draining) is backpressure, not a failure: no dump.
            service.note_request("GET /readyz", 0.001, 503)
            assert not list(tmp_path.glob("flights/*.json"))
            service.note_request("POST /projects", 0.002, 500)
            dumps = list(tmp_path.glob("flights/*-5xx.json"))
            assert len(dumps) == 1
            doc = json.loads(dumps[0].read_text())
            routes = [r.get("route") for r in doc["records"]]
            assert "POST /projects" in routes
        finally:
            service.close()

    def test_sigusr2_dump_without_flight_dir_lands_in_cwd(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        service = ChopService(workers=1, registry=MetricsRegistry())
        try:
            service.note_request("GET /healthz", 0.001, 200, path="/healthz")
            lines = []
            path = _dump_on_signal(service, lines.append)
            dumps = list(tmp_path.glob("flight-*-sigusr2.json"))
            assert len(dumps) == 1
            assert lines == [f"flight recorder dumped to {path}"]
            record = json.loads(dumps[0].read_text())["records"][0]
            assert record["route"] == "GET /healthz"
            assert record["path"] == "/healthz"
        finally:
            service.close()


class TestJobControl:
    def test_job_timeout_over_http(self, server, project_doc):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]
        # A microscopic budget expires before the first combination.
        status, job = request(
            port, "POST", f"/projects/{pid}/enumerate",
            {"timeout_s": 1e-6},
        )
        assert status == 202
        finished = poll_job(port, job["job_id"])
        assert finished["state"] == "failed"
        assert "timed out" in finished["error"]

    def test_cancel_queued_job_over_http(self, server, project_doc):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        # Pin the single worker so the HTTP-submitted job stays queued.
        release = threading.Event()
        blocker = service.jobs.submit(
            lambda should_stop: release.wait(30)
        )
        status, job = request(
            port, "POST", f"/projects/{pid}/enumerate", {}
        )
        assert status == 202
        status, cancelled = request(
            port, "POST", f"/jobs/{job['job_id']}/cancel"
        )
        assert status == 202
        release.set()
        finished = poll_job(port, job["job_id"])
        assert finished["state"] == "cancelled"
        service.jobs.wait(blocker.id)
