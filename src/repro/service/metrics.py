"""Request metrics: the HTTP families of one registry and their JSON view.

Every finished request is recorded once, in the
:class:`repro.obs.metrics.MetricsRegistry` the service runs on — the
``requests_total`` / ``responses_total{status}`` /
``route_requests_total{route}`` counters and the
``request_latency_seconds{route,class}`` histogram (with the request's
trace id as exemplar).  The Prometheus exposition, the SLO tracker and
the legacy ``/metrics`` JSON shape all read these families, so they
agree: the JSON ``routes.<route>.latency_ms.p50/p95`` are the same
bucket-derived quantiles PromQL's ``histogram_quantile`` gives.  Route
labels are route-table templates (:data:`repro.service.app.ROUTES`),
so their number is bounded by the table, not by what clients send.

The JSON view also carries one block per subsystem ``stats()`` supplier
registered on the registry
(:meth:`~repro.obs.metrics.MetricsRegistry.register_stats`) — the same
suppliers the Prometheus exposition renders as ``chop_<label>_*``
gauges.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    quantile_from_counts,
)


def status_class(status: int) -> str:
    """``200 -> "2xx"`` — the low-cardinality status label."""
    return f"{int(status) // 100}xx"


class Metrics:
    """The request families of one registry and their JSON snapshot."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._requests_total = self.registry.counter(
            "requests_total", "Requests served, all routes"
        )
        self._responses_total = self.registry.counter(
            "responses_total",
            "Responses by HTTP status code",
            labelnames=("status",),
        )
        self._route_requests = self.registry.counter(
            "route_requests_total",
            "Requests per route template",
            labelnames=("route",),
        )
        self._latency = self.registry.histogram(
            "request_latency_seconds",
            "Request wall time per route and status class",
            labelnames=("route", "class"),
        )

    @property
    def latency_histogram(self):
        """The registry request-latency histogram."""
        return self._latency

    def observe(
        self,
        route: str,
        seconds: float,
        status: int,
        trace_id: Optional[str] = None,
    ) -> None:
        """Record one finished request (``trace_id`` becomes an exemplar)."""
        self._requests_total.inc()
        self._responses_total.labels(status=str(int(status))).inc()
        self._route_requests.labels(route=route).inc()
        self._latency.labels(
            route=route, **{"class": status_class(status)}
        ).observe(seconds, exemplar=trace_id)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable view of everything recorded so far.

        ``requests_total`` is summed from the same pass over the route
        counters that yields ``routes``, so a snapshot taken while
        requests land is still internally consistent.
        """
        buckets = self._latency.buckets
        routes: Dict[str, Any] = {}
        for sample in self._route_requests.samples():
            route = sample["labels"]["route"]
            counts, total, _ = self._latency.aggregate(
                where={"route": route}
            )
            routes[route] = {
                "count": int(sample["value"]),
                "latency_ms": {
                    key: round(
                        quantile_from_counts(buckets, counts, q) * 1000, 3
                    )
                    for key, q in (("p50", 0.5), ("p95", 0.95))
                }
                if total
                else None,
            }
        doc: Dict[str, Any] = {
            "requests_total": sum(r["count"] for r in routes.values()),
            "responses_by_status": {
                sample["labels"]["status"]: int(sample["value"])
                for sample in self._responses_total.samples()
            },
            "routes": routes,
        }
        # Suppliers run outside every lock: they take their own locks,
        # and one may record a request of its own.
        for label, supplier in self.registry.stats_suppliers():
            doc[label] = supplier()
        return doc
