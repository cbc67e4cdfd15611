"""The service's two service-level objectives, read from the registry.

Both objectives are targets over metrics the registry already holds — no
second bookkeeping path:

* ``latency_p95`` — the p95 of request latency over every route stays
  under ``latency_ms``, measured from the ``request_latency_seconds``
  histogram's buckets;
* ``error_rate`` — the 5xx share of ``responses_total`` stays under
  ``error_rate``.

:meth:`SLOTracker.evaluate` computes each objective's **burn ratio** —
``measured / objective``, so 1.0 is exactly at target and anything above
is out of budget — and mirrors it into ``slo_burn_ratio{slo=...}`` /
``slo_ok{slo=...}`` gauges in the same registry, which means the SLO
state rides along in both the JSON snapshot and the Prometheus text
exposition.  The service evaluates on every ``GET /slo`` and ``GET
/metrics`` scrape, so the gauges are as fresh as the scrape that reads
them.

Objectives cover the process lifetime (cumulative counters), the right
semantics for soak benchmarks and CI scrapes; windowed burn rates are a
scrape-side derivation (``rate()``) once Prometheus ingests the series.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry


class SLOTracker:
    """Evaluates the two objectives and exports their burn gauges."""

    def __init__(
        self,
        registry: MetricsRegistry,
        latency_ms: float = 500.0,
        error_rate: float = 0.01,
    ) -> None:
        if not latency_ms > 0:
            raise ValueError(f"latency_ms must be > 0, got {latency_ms}")
        if not 0 < error_rate <= 1:
            raise ValueError(
                f"error_rate must be in (0, 1], got {error_rate}"
            )
        self.registry = registry
        self.latency_s = latency_ms / 1000.0
        self.error_rate = error_rate
        self._burn = registry.gauge(
            "slo_burn_ratio",
            "Measured value over objective; > 1 is out of budget",
            labelnames=("slo",),
        )
        self._ok = registry.gauge(
            "slo_ok",
            "1 while the objective holds, 0 once it is burned",
            labelnames=("slo",),
        )

    def _p95_latency(self) -> Optional[float]:
        family = self.registry.get("request_latency_seconds")
        if not isinstance(family, Histogram):
            return None
        return family.quantile(0.95)

    def _error_share(self) -> Optional[float]:
        family = self.registry.get("responses_total")
        if family is None or "status" not in family.labelnames:
            return None
        total = errors = 0.0
        for sample in family.samples():
            total += sample["value"]
            if sample["labels"]["status"].startswith("5"):
                errors += sample["value"]
        return errors / total if total else None

    def _report(
        self, doc: Dict[str, Any], measured: Optional[float], target: float
    ) -> Dict[str, Any]:
        """Add ``burn`` and ``ok`` to ``doc`` and set its gauges."""
        burn = 0.0 if measured is None else measured / target
        doc["burn"] = round(burn, 6)
        doc["ok"] = burn <= 1.0
        self._burn.labels(slo=doc["name"]).set(burn)
        self._ok.labels(slo=doc["name"]).set(1.0 if doc["ok"] else 0.0)
        return doc

    def evaluate(self) -> Dict[str, Any]:
        """Measure both objectives, update the burn gauges, report.

        An objective with no data yet (nothing observed) reports
        ``measured: null``, burn 0 and ``ok: true`` — an idle service is
        within budget, not in breach.
        """
        latency = self._p95_latency()
        errors = self._error_share()
        results = [
            self._report(
                {
                    "name": "latency_p95",
                    "kind": "latency",
                    "quantile": 0.95,
                    "route": None,
                    "objective_s": self.latency_s,
                    "measured_s": latency,
                },
                latency,
                self.latency_s,
            ),
            self._report(
                {
                    "name": "error_rate",
                    "kind": "error_rate",
                    "objective_ratio": self.error_rate,
                    "measured_ratio": errors,
                },
                errors,
                self.error_rate,
            ),
        ]
        return {
            "objectives": results,
            "ok": all(r["ok"] for r in results),
        }
