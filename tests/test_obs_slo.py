"""SLO objectives, burn ratios, and the exported gauges."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker


def make_registry(latencies=(), statuses=()):
    registry = MetricsRegistry()
    h = registry.histogram(
        "request_latency_seconds",
        labelnames=("route", "class"),
        buckets=(0.01, 0.1, 1.0),
    )
    for route, value in latencies:
        h.labels(route=route, **{"class": "2xx"}).observe(value)
    c = registry.counter("responses_total", labelnames=("status",))
    for status, count in statuses:
        c.labels(status=str(status)).inc(count)
    return registry


class TestObjectives:
    def test_latency_objective_validation(self):
        for latency_ms in (0, -1, float("nan")):
            with pytest.raises(ValueError, match="latency_ms"):
                SLOTracker(MetricsRegistry(), latency_ms=latency_ms)

    def test_error_rate_validation(self):
        for error_rate in (0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="error_rate"):
                SLOTracker(MetricsRegistry(), error_rate=error_rate)

    def test_default_objectives_shape(self):
        latency, errors = SLOTracker(
            make_registry(), latency_ms=250.0, error_rate=0.05
        ).evaluate()["objectives"]
        assert latency["name"] == "latency_p95"
        assert latency["objective_s"] == 0.25
        assert errors["name"] == "error_rate"
        assert errors["objective_ratio"] == 0.05


class TestEvaluate:
    def test_no_data_is_within_budget(self):
        registry = make_registry()
        tracker = SLOTracker(registry)
        outcome = tracker.evaluate()
        assert outcome["ok"] is True
        for doc in outcome["objectives"]:
            assert doc["burn"] == 0.0
            assert doc["ok"] is True

    def test_latency_within_and_out_of_budget(self):
        registry = make_registry(
            latencies=[("GET /x", 0.005)] * 20
        )
        ok = SLOTracker(registry, latency_ms=500.0).evaluate()
        assert ok["ok"] is True

        registry = make_registry(
            latencies=[("GET /x", 0.5)] * 20
        )
        burned = SLOTracker(registry, latency_ms=10.0).evaluate()
        assert burned["ok"] is False
        assert burned["objectives"][0]["burn"] > 1.0

    def test_error_rate_burn(self):
        registry = make_registry(
            statuses=[(200, 90), (500, 10)]
        )
        outcome = SLOTracker(registry, error_rate=0.01).evaluate()
        doc = outcome["objectives"][1]
        assert doc["measured_ratio"] == pytest.approx(0.1)
        assert doc["burn"] == pytest.approx(10.0)
        assert outcome["ok"] is False

    def test_503_is_not_a_failure(self):
        registry = make_registry(statuses=[(200, 90), (503, 10)])
        outcome = SLOTracker(registry, error_rate=0.01).evaluate()
        doc = outcome["objectives"][1]
        assert doc["measured_ratio"] == 0.0
        assert doc["ok"] is True and outcome["ok"] is True
        ok = registry.get("slo_ok")
        assert ok.labels(slo="error_rate").value == 1.0

    def test_gauges_exported_to_registry(self):
        registry = make_registry(statuses=[(200, 99), (500, 1)])
        tracker = SLOTracker(registry, error_rate=0.05)
        tracker.evaluate()
        burn = registry.get("slo_burn_ratio")
        ok = registry.get("slo_ok")
        assert burn.labels(slo="error_rate").value == pytest.approx(0.2)
        assert ok.labels(slo="error_rate").value == 1.0


#: Four registry states, as ``(route, seconds, status)`` requests.
STATES = {
    "idle": [],
    "within_budget": (
        [("GET /healthz", 0.002, 200)] * 30
        + [("POST /projects/{id}/check", 0.04, 200)] * 9
        + [("GET /jobs/{id}", 0.001, 404)]
    ),
    "latency_burned": (
        [("POST /projects/{id}/check", 0.9, 200)] * 20
        + [("GET /healthz", 0.002, 200)] * 20
    ),
    # 503 (drain, backpressure) is no failure: only the 500s burn.
    "errors_burned": (
        [("GET /healthz", 0.002, 200)] * 90
        + [("POST /projects", 0.003, 503)] * 6
        + [("POST /projects/{id}/check", 0.02, 500)] * 4
    ),
}

#: ``(service options, state, latency, errors)``; ``latency`` and
#: ``errors`` are ``(measured, burn in the document, burn gauge)``.
PINNED = [
    ({}, "idle", (None, 0.0, 0.0), (None, 0.0, 0.0)),
    ({}, "within_budget",
     (0.04977777777777778, 0.099556, 0.09955555555555556),
     (0.0, 0.0, 0.0)),
    ({}, "latency_burned",
     (0.9216000000000001, 1.8432, 1.8432000000000002),
     (0.0, 0.0, 0.0)),
    ({}, "errors_burned",
     (0.0033333333333333335, 0.006667, 0.006666666666666667),
     (0.04, 4.0, 4.0)),
    (dict(slo_latency_ms=50.0, slo_error_rate=0.25), "idle",
     (None, 0.0, 0.0), (None, 0.0, 0.0)),
    (dict(slo_latency_ms=50.0, slo_error_rate=0.25), "within_budget",
     (0.04977777777777778, 0.995556, 0.9955555555555556),
     (0.0, 0.0, 0.0)),
    (dict(slo_latency_ms=50.0, slo_error_rate=0.25), "latency_burned",
     (0.9216000000000001, 18.432, 18.432000000000002),
     (0.0, 0.0, 0.0)),
    (dict(slo_latency_ms=50.0, slo_error_rate=0.25), "errors_burned",
     (0.0033333333333333335, 0.066667, 0.06666666666666667),
     (0.04, 0.16, 0.16)),
]


class TestPinnedEvaluations:
    """The service tracker's exact ``/slo`` documents and gauges."""

    @pytest.mark.parametrize(
        "options,state,latency,errors", PINNED,
        ids=[f"{o.get('slo_latency_ms', 'default')}-{s}"
             for o, s, _l, _e in PINNED],
    )
    def test_document_and_gauges(self, options, state, latency, errors):
        from repro.service.app import ChopService

        registry = MetricsRegistry()
        service = ChopService(registry=registry, **options)
        try:
            for route, seconds, status in STATES[state]:
                service.metrics.observe(route, seconds, status)
            outcome = service.slo.evaluate()
            status, payload, _route, _headers = service.handle(
                "GET", "/slo", None
            )
        finally:
            service.close()
        latency_ok = latency[1] <= 1.0
        errors_ok = errors[1] <= 1.0
        assert outcome == {
            "objectives": [
                {
                    "name": "latency_p95",
                    "kind": "latency",
                    "quantile": 0.95,
                    "route": None,
                    "objective_s": options.get("slo_latency_ms", 500.0)
                    / 1000.0,
                    "measured_s": latency[0],
                    "burn": latency[1],
                    "ok": latency_ok,
                },
                {
                    "name": "error_rate",
                    "kind": "error_rate",
                    "objective_ratio": options.get("slo_error_rate", 0.01),
                    "measured_ratio": errors[0],
                    "burn": errors[1],
                    "ok": errors_ok,
                },
            ],
            "ok": latency_ok and errors_ok,
        }
        assert (status, payload) == (200, outcome)
        # The reply is ``json.dumps(payload)``: key order is its bytes.
        assert [list(outcome), *map(list, outcome["objectives"])] == [
            ["objectives", "ok"],
            ["name", "kind", "quantile", "route", "objective_s",
             "measured_s", "burn", "ok"],
            ["name", "kind", "objective_ratio", "measured_ratio", "burn",
             "ok"],
        ]
        assert registry.get("slo_burn_ratio").samples() == [
            {"labels": {"slo": "error_rate"}, "value": errors[2]},
            {"labels": {"slo": "latency_p95"}, "value": latency[2]},
        ]
        assert registry.get("slo_ok").samples() == [
            {"labels": {"slo": "error_rate"},
             "value": 1.0 if errors_ok else 0.0},
            {"labels": {"slo": "latency_p95"},
             "value": 1.0 if latency_ok else 0.0},
        ]
