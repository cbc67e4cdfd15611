"""``service_mix``: a seeded request mix against one ``chop serve``.

One fresh single-process server per set-up, default options, driven by
one closed-loop client that opens one connection per request.  Hits and
scrapes isolate serving overhead (routing, JSON, the verdict cache,
registry rendering); the cold class checks through the whole stack; the
job class exercises the job queue.  Every verdict is compared with an
in-process ``ChopSession.check`` of the same document.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    HEURISTICS,
    ROOT,
    SRC,
    OpThunk,
    WorkloadBase,
    digest_json,
    verdict_doc,
)
from designer_loop import build_cell

#: The pre-checked paper projects: (name, experiment, package, k).
PROJECTS: List[Tuple[str, int, int, int]] = [
    ("exp1_pkg1_k2", 1, 1, 2),
    ("exp1_pkg1_k3", 1, 1, 3),
    ("exp1_pkg2_k1", 1, 2, 1),
    ("exp1_pkg2_k2", 1, 2, 2),
    ("exp1_pkg2_k3", 1, 2, 3),
    ("exp2_k3", 2, 2, 3),
    ("exp2_k4", 2, 2, 4),
]
#: One pass is 229 requests with exactly this mix, in seeded order:
#: every (project, heuristic) pair hit 13 times and cold-checked twice,
#: 12 Prometheus scrapes, and one enumerate job per project — 79.5 %
#: hits, 12.2 % cold, 5.2 % scrapes, 3.1 % jobs.  Each kind (hit, cold
#: or job of one project and heuristic, or a scrape) is one unit of
#: identical work, present the same number of times in every pass.
HIT_ROUNDS = 13
COLD_ROUNDS = 2
SCRAPES_PER_PASS = 12
JOB_POLL_S = 0.002


class Workload(WorkloadBase):
    op_definition = (
        "one client request to a fresh `chop serve` (one closed-loop "
        "client, one connection per request); a pass is 229 requests: "
        "182 verdict-cache hits (13 per project and heuristic, 7 "
        "pre-checked paper projects), 28 cold upload+check of a "
        "seed-jittered project (2 per project and heuristic, counted as "
        "one op), 12 GET /metrics?format=prometheus, 7 enumerate jobs "
        "(one per project) polled to done"
    )
    verification = "in-process ChopSession.check of the same document"
    min_ops = 100
    # The server runs in its own process; wrapping here would only trace
    # the in-process reference checks, and a yardstick reading inside a
    # request would delay the reply.
    wrap_program = False
    sample_inside = False
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.io.project import session_to_dict

        if self.scale == "smoke":
            self.min_ops = 1
        self.documents = {
            name: session_to_dict(build_cell(experiment, package, k))
            for name, experiment, package, k in PROJECTS
        }
        self._boot()
        self.project_ids = {}
        for name, document in self.documents.items():
            reply = self._json("POST", "/projects", document)
            self.project_ids[name] = reply["project_id"]
            for heuristic in HEURISTICS:
                self._json(
                    "POST", f"/projects/{reply['project_id']}/check",
                    {"heuristic": heuristic},
                )
        self.rng = random.Random(self.seed)
        self.jitters = set()
        self.references: Dict[str, str] = {}
        self.base_sessions = {}
        self.scrape_sizes: List[int] = []
        self.deferred: List[Tuple[int, object, object]] = []

    # -- the server ----------------------------------------------------
    def _boot(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        banner = self.server.stdout.readline()
        marker = "serving on http://"
        if marker not in banner:
            self.close()
            raise RuntimeError(f"chop serve did not start: {banner!r}")
        address = banner.split(marker, 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def _request(self, method: str, path: str, body=None) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} -> {response.status}")
        return data

    def _json(self, method: str, path: str, body=None):
        return json.loads(self._request(method, path, body))

    # -- the mix -------------------------------------------------------
    def passes(self, index: int) -> Iterator[OpThunk]:
        pairs = [(name, h) for name, *_ in PROJECTS for h in HEURISTICS]
        plan = (
            [("hit", pair) for pair in pairs] * HIT_ROUNDS
            + [("cold", pair) for pair in pairs] * COLD_ROUNDS
            + [("scrape", None)] * SCRAPES_PER_PASS
            + [("job", (name, "enumeration")) for name, *_ in PROJECTS]
        )
        self.rng.shuffle(plan)
        for kind, arg in plan:
            if kind == "scrape":
                yield kind, self._scrape
                continue
            label = "{}|{}|{}".format(kind, *arg)
            if kind == "hit":
                yield label, self._hit(*arg)
            elif kind == "cold":
                yield label, self._cold(*arg)
            else:
                yield label, self._job(arg[0])

    def _hit(self, name: str, heuristic: str):
        path = f"/projects/{self.project_ids[name]}/check"

        def run():
            reply = self._json("POST", path, {"heuristic": heuristic})
            return (name, self.documents[name], heuristic), reply["result"]

        return run

    def _cold(self, name: str, heuristic: str):
        document = copy.deepcopy(self.documents[name])
        jitter = self.rng.randrange(1, 10**9)
        while jitter in self.jitters:
            jitter = self.rng.randrange(1, 10**9)
        self.jitters.add(jitter)
        document["criteria"]["performance_ns"] += jitter * 1e-9

        def run():
            upload = self._json("POST", "/projects", document)
            if not upload.get("created"):
                raise RuntimeError("cold upload matched a resident project")
            reply = self._json(
                "POST", f"/projects/{upload['project_id']}/check",
                {"heuristic": heuristic},
            )
            if reply["cache_hit"]:
                raise RuntimeError("cold check was served from the cache")
            return (name, document, heuristic), reply["result"]

        return run

    def _scrape(self):
        text = self._request("GET", "/metrics?format=prometheus")
        self.scrape_sizes.append(len(text))
        return None, text

    def _job(self, name: str):
        path = f"/projects/{self.project_ids[name]}/enumerate"

        def run():
            job = self._json("POST", path, {})
            while job["state"] in ("queued", "running"):
                time.sleep(JOB_POLL_S)
                job = self._json("GET", f"/jobs/{job['job_id']}")
            if job["state"] != "done":
                raise RuntimeError(f"job ended {job['state']}")
            return (
                (name, self.documents[name], "enumeration"), job["result"]
            )

        return run

    # -- verification --------------------------------------------------
    def verify(self, op_index, key, output) -> Optional[str]:
        if key is None:
            if b"chop_requests_total" not in output:
                return "scrape lacks chop_requests_total"
            return None
        # A cold document's reference check costs as much as the request;
        # run those after the timed loop so they do not shorten it.
        self.deferred.append((op_index, key, output))
        return None

    def finish(self) -> Dict[int, str]:
        errors = {}
        for op_index, key, output in self.deferred:
            if digest_json(verdict_doc(output)) != self._reference(*key):
                errors[op_index] = "verdict differs from the in-process check"
        self.deferred = []
        return errors

    def _reference(self, name: str, document, heuristic: str) -> str:
        """Digest of an in-process check of ``document``.

        BAD's predictions depend on the graph, library, clocks and style,
        never on the criteria — the only field a cold document jitters —
        so the reference session is seeded with the base project's
        predictions and runs only the criteria-dependent prune and search.
        """
        from repro.io.project import load_project, project_fingerprint

        ref_key = f"{project_fingerprint(document)}|{heuristic}"
        want = self.references.get(ref_key)
        if want is None:
            base = self.base_sessions.get(name)
            if base is None:
                base = load_project(self.documents[name])
                self.base_sessions[name] = base
            session = load_project(document)
            session.seed_predictions(base.export_predictions())
            result = session.check(heuristic=heuristic)
            # Through JSON, as the server's verdict travelled.
            doc = json.loads(json.dumps(result.to_dict()))
            want = self.references[ref_key] = digest_json(verdict_doc(doc))
        return want

    # -- per-layer numbers: client-side classes and /metrics ------------
    def snapshot(self):
        self.scrape_sizes = []
        return self._json("GET", "/metrics")

    def extras(self, before, ops) -> Dict[str, float]:
        from statistics import median

        after = self._json("GET", "/metrics")

        def delta(block: str, field: str) -> float:
            return after[block][field] - before[block][field]

        def p50_ms(kind: str) -> float:
            samples = [
                op.seconds for op in ops if op.kind.split("|")[0] == kind
            ]
            return median(samples) * 1000.0 if samples else 0.0

        cache_lookups = delta("cache", "hits") + delta("cache", "misses")
        # The eval block sums the *resident* sessions only, and cold
        # uploads evict sessions, so deltas can go negative: report the
        # resident sessions' cumulative ratio instead.
        resident = after["eval"]
        eval_lookups = resident["hits"] + resident["misses"]
        return {
            "service.hit_p50_ms": p50_ms("hit"),
            "service.cold_p50_ms": p50_ms("cold"),
            "service.scrape_p50_ms": p50_ms("scrape"),
            "service.job_p50_ms": p50_ms("job"),
            "service.verdict_cache_hit_ratio": (
                delta("cache", "hits") / cache_lookups
                if cache_lookups else 0.0
            ),
            "service.scrape_bytes": (
                median(self.scrape_sizes) if self.scrape_sizes else 0.0
            ),
            "eval.hit_ratio": (
                resident["hits"] / eval_lookups if eval_lookups else 0.0
            ),
        }

    def peak_rss_mb(self) -> float:
        """The server's peak RSS, as its own /metrics reports it."""
        process = self._json("GET", "/metrics")["process"]
        return process["peak_rss_bytes"] / 2**20
