"""The multi-process serving front (``repro.service.fleet``).

Three layers, cheapest first: the sticky-routing rule as pure unit
tests (ownership must be deterministic — two workers disagreeing on an
owner would split a project's session state); the ``/metrics``
exposition merger against the repo's own Prometheus linter (the reason
the fleet merges families instead of concatenating scrapes); and an
end-to-end forked fleet — sticky ``X-Chop-Worker`` stamps, verdicts
byte-identical to a single-node run, one lintable aggregated scrape,
and a clean fleet-wide SIGTERM drain.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import project_fingerprint, session_to_dict
from repro.obs.prometheus import merge_expositions
from repro.service.fleet import (
    MAX_FLEET_WORKERS,
    FleetRouter,
    bind_public_socket,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_prometheus_linter():
    """Import ``benchmarks/check_prometheus.py`` as a module."""
    path = REPO_ROOT / "benchmarks" / "check_prometheus.py"
    spec = importlib.util.spec_from_file_location(
        "check_prometheus", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# the sticky-routing rule
# ----------------------------------------------------------------------
class TestRouting:
    def router(self, index=0, workers=3):
        return FleetRouter(
            index=index,
            internal_ports=tuple(9000 + i for i in range(workers)),
            public_port=8080,
        )

    def test_every_worker_agrees_on_ownership(self):
        routers = [self.router(index=i) for i in range(3)]
        session = experiment1_session(partition_count=2)
        fingerprint = project_fingerprint(session_to_dict(session))
        owners = {
            r.owner_of_fingerprint(fingerprint) for r in routers
        }
        assert len(owners) == 1
        assert owners.pop() in range(3)

    def test_project_id_and_fingerprint_route_identically(self):
        router = self.router()
        session = experiment2_session(partition_count=3)
        fingerprint = project_fingerprint(session_to_dict(session))
        project_id = fingerprint[:16]
        assert router.owner_of_project(
            project_id
        ) == router.owner_of_fingerprint(fingerprint)

    def test_malformed_project_id_routes_locally(self):
        assert self.router().owner_of_project("not-hex!") is None

    def test_job_prefix_round_trips(self):
        router = self.router(index=2)
        assert router.job_prefix == "w2-"
        assert router.owner_of_job("w2-job-17") == 2
        assert router.owner_of_job("w0-job-1") == 0
        # Unprefixed (single-node era) and out-of-range ids stay local.
        assert router.owner_of_job("job-1") is None
        assert router.owner_of_job("w9-job-1") is None

    def test_owner_for_post_projects_hashes_the_body(self):
        router = self.router()
        document = session_to_dict(experiment1_session(partition_count=2))
        body = json.dumps(document).encode("utf-8")
        expected = router.owner_of_fingerprint(
            project_fingerprint(document)
        )
        assert router.owner_for("POST", "/projects", body) == expected
        # A malformed upload is answered locally with the usual 400.
        assert router.owner_for("POST", "/projects", b"{oops") is None

    def test_non_sticky_routes_are_local(self):
        router = self.router()
        for path in ("/healthz", "/readyz", "/metrics", "/slo",
                     "/debug/flight", "/"):
            assert router.owner_for("GET", path, None) is None

    def test_worker_cap_enforced(self):
        with pytest.raises(ValueError, match="fleet cap"):
            FleetRouter(
                index=0,
                internal_ports=tuple(range(MAX_FLEET_WORKERS + 1)),
                public_port=8080,
            )

    def test_unreachable_owner_is_a_502(self):
        # Port 1 on loopback: nothing listens, connect fails fast.
        router = FleetRouter(
            index=0, internal_ports=(1, 1), public_port=8080,
            forward_timeout_s=2.0,
        )
        status, payload, route, _headers = router.forward(
            1, "GET", "/projects/abc", None
        )
        assert status == 502
        assert payload["type"] == "fleet_forward"
        assert route == "(forwarded)"
        assert router.stats()["forward_failures"] == 1


# ----------------------------------------------------------------------
# exposition merging: one lintable scrape out of N workers
# ----------------------------------------------------------------------
class TestMergeExpositions:
    WORKER_TEXT = (
        "# HELP chop_http_requests_total Requests by route.\n"
        "# TYPE chop_http_requests_total counter\n"
        'chop_http_requests_total{route="/healthz",status="200"} {n}\n'
        "# HELP chop_eval_seconds Evaluation latency.\n"
        "# TYPE chop_eval_seconds histogram\n"
        'chop_eval_seconds_bucket{le="0.1"} {n}\n'
        'chop_eval_seconds_bucket{le="+Inf"} {n}\n'
        "chop_eval_seconds_sum 0.05\n"
        "chop_eval_seconds_count {n}\n"
    )

    def merged(self):
        return merge_expositions(
            [
                ("0", self.WORKER_TEXT.replace("{n}", "3")),
                ("1", self.WORKER_TEXT.replace("{n}", "5")),
            ]
        )

    def test_one_header_per_family_and_worker_labels(self):
        text = self.merged()
        assert text.count("# TYPE chop_http_requests_total") == 1
        assert text.count("# TYPE chop_eval_seconds") == 1
        assert 'worker="0"' in text and 'worker="1"' in text
        assert (
            'chop_http_requests_total{worker="0",route="/healthz",'
            'status="200"} 3' in text
        )

    def test_merged_output_passes_the_repo_linter(self):
        linter = load_prometheus_linter()
        problems, families = linter.lint(self.merged())
        assert problems == []
        assert "chop_http_requests_total" in families

    def test_concatenation_would_fail_the_linter(self):
        # The control: why the fleet merges instead of concatenating.
        linter = load_prometheus_linter()
        concatenated = (
            self.WORKER_TEXT.replace("{n}", "3")
            + self.WORKER_TEXT.replace("{n}", "5")
        )
        problems, _families = linter.lint(concatenated)
        assert any("duplicate" in p for p in problems)

    def test_source_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            merge_expositions(
                [(str(i), "x_total 1\n") for i in range(65)]
            )

    def test_untyped_strays_get_a_type_line(self):
        text = merge_expositions([("0", "loose_metric 7\n")])
        assert "# TYPE loose_metric untyped" in text
        assert 'loose_metric{worker="0"} 7' in text


# ----------------------------------------------------------------------
# socket plumbing
# ----------------------------------------------------------------------
class TestSockets:
    def test_bind_public_socket_port_zero(self):
        sock = bind_public_socket("127.0.0.1", 0)
        try:
            host, port = sock.getsockname()[:2]
            assert host == "127.0.0.1" and port > 0
        finally:
            sock.close()


# ----------------------------------------------------------------------
# end to end: a real forked fleet
# ----------------------------------------------------------------------
def _get(port, path, timeout=30):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            dict(response.headers),
        )


def _post(port, path, document, timeout=600):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(document).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return (
            response.status,
            json.loads(response.read().decode("utf-8")),
            dict(response.headers),
        )


@pytest.mark.skipif(
    not hasattr(os, "fork") or os.name == "nt",
    reason="fleet mode forks",
)
class TestFleetEndToEnd:
    @pytest.fixture()
    def fleet(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--procs", "2", "--workers", "1",
                "--drain-timeout", "5",
                "--disk-cache", str(tmp_path / "cache"),
                "--cache-backend", "shared",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        try:
            banner = proc.stdout.readline()
            assert "2 workers" in banner, banner
            port = int(
                banner.split("http://127.0.0.1:")[1].split(" ")[0]
            )
            yield proc, port
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_sticky_routing_identity_metrics_and_drain(self, fleet):
        proc, port = fleet
        status, _body, _headers = _get(port, "/readyz")
        assert status == 200

        # Single-node reference verdicts, computed in-process.
        from repro.service import ChopService

        def strip_timings(verdict):
            verdict.pop("cpu_seconds", None)
            if isinstance(verdict.get("result"), dict):
                verdict["result"].pop("cpu_seconds", None)
            return verdict

        documents, reference = [], []
        for session in (
            experiment1_session(package_number=2, partition_count=2),
            experiment2_session(partition_count=3),
        ):
            documents.append(session_to_dict(session))
        single = ChopService(workers=1)
        try:
            for document in documents:
                _status, created, _headers = (
                    200,
                    single.handle(
                        "POST", "/projects",
                        json.dumps(document).encode(),
                    )[1],
                    None,
                )
                verdict = single.handle(
                    "POST",
                    f"/projects/{created['project_id']}/check",
                    b"{}",
                )[1]
                reference.append(strip_timings(verdict))
        finally:
            single.close()

        # Upload + check through the fleet: every response must carry
        # the owner's X-Chop-Worker stamp, constant per project.
        owners = []
        for document, expected in zip(documents, reference):
            status, created, headers = _post(
                port, "/projects", document
            )
            assert status in (200, 201)
            owner = headers.get("X-Chop-Worker")
            assert owner in ("0", "1")
            project_id = created["project_id"]
            status, verdict, check_headers = _post(
                port, f"/projects/{project_id}/check", {}
            )
            assert status == 200
            assert check_headers.get("X-Chop-Worker") == owner
            assert strip_timings(verdict) == expected
            owners.append(owner)
            # Reads route to the same owner.
            status, _body, read_headers = _get(
                port, f"/projects/{project_id}"
            )
            assert read_headers.get("X-Chop-Worker") == owner

        # Aggregated JSON metrics: one snapshot per worker plus the
        # router block.
        status, body, _headers = _get(port, "/metrics")
        snapshot = json.loads(body)
        assert set(snapshot) == {"fleet", "workers"}
        assert set(snapshot["workers"]) == {"0", "1"}
        assert snapshot["fleet"]["workers"] == 2

        # Aggregated Prometheus scrape: lints clean, and every sample
        # carries the worker label.
        status, text, _headers = _get(
            port, "/metrics?format=prometheus"
        )
        linter = load_prometheus_linter()
        problems, families = linter.lint(text)
        assert problems == []
        assert "chop_requests_total" in families
        assert 'worker="0"' in text and 'worker="1"' in text

        # Fleet drain: SIGTERM to the parent, every worker exits 0.
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
        assert proc.returncode == 0

    @pytest.mark.skipif(
        not hasattr(signal, "SIGUSR2")
        or not os.path.exists(f"/proc/{os.getpid()}/task"),
        reason="needs SIGUSR2 and /proc to find the worker pids",
    )
    def test_sigusr2_dumps_each_worker_to_the_working_directory(
        self, tmp_path
    ):
        """Workers run the one serve loop: SIGUSR2 dumps the flight
        recorder even without --flight-dir, one file per worker."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--procs", "2", "--workers", "1",
                "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        try:
            banner = proc.stdout.readline()
            assert "2 workers" in banner, banner
            children = pathlib.Path(
                f"/proc/{proc.pid}/task/{proc.pid}/children"
            ).read_text().split()
            assert len(children) == 2
            for pid in children:
                os.kill(int(pid), signal.SIGUSR2)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and len(
                list(tmp_path.glob("flight-*-sigusr2.json"))
            ) < 2:
                time.sleep(0.05)
            assert len(list(tmp_path.glob("flight-*-sigusr2.json"))) == 2
        finally:
            # The parent fans SIGTERM out, so no worker is orphaned.
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        assert proc.returncode == 0
