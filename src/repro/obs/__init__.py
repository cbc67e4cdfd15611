"""repro.obs — end-to-end observability for the CHOP stack.

The paper's whole argument is iteration speed: prediction replaces
synthesis so the designer can see *why* a partitioning fails and react.
This package gives the grown system the same property about itself:

* :mod:`repro.obs.tracing` — thread-/process-safe span tracing with
  context-propagated trace ids, a JSONL sink, and deterministic
  re-parenting of worker-process shard spans;
* :mod:`repro.obs.profiling` — an opt-in sampling wall-clock profiler
  for the hot evaluation loop, plus process resource probes;
* :mod:`repro.obs.explain` — per-constraint feasibility breakdowns
  ("chip area on chip2 killed 81% of combinations, worst margin
  -312 mil²");
* :mod:`repro.obs.metrics` — the process-wide metrics registry
  (counters, set-only gauges, labeled histograms with exemplars) every
  subsystem registers into;
* :mod:`repro.obs.prometheus` — text exposition of the registry for
  ``GET /metrics?format=prometheus``;
* :mod:`repro.obs.logging` — structured JSONL logging on the standard
  library's :mod:`logging`, with trace-id correlation, level-filtered
  via ``$CHOP_LOG``;
* :mod:`repro.obs.slo` — the service's p95-latency and error-rate
  objectives evaluated from the registry, exported as burn gauges and
  ``GET /slo``;
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring buffer
  of recent completed requests/jobs (``GET /debug/recent``, ``SIGUSR2``
  and automatic 5xx dumps);
* :mod:`repro.obs.render` / :mod:`repro.obs.schema` — the ``repro
  trace show`` tree renderer and the JSONL schema validator CI runs.

Everything is stdlib-only and import-light: ``repro.obs`` never imports
the model packages, so any layer can instrument itself without cycles.
See ``docs/observability.md`` for the span schema and naming.
"""

from repro.obs.explain import (
    ConstraintTally,
    ExplainCollector,
    ExplainReport,
)
from repro.obs.flight import FlightRecorder
from repro.obs.logging import (
    StructuredLogger,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
)
from repro.obs.profiling import SamplingProfiler, peak_rss_bytes
from repro.obs.prometheus import render_registry
from repro.obs.render import render_trace
from repro.obs.slo import SLOTracker
from repro.obs.schema import validate_span, validate_trace
from repro.obs.tracing import (
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    Span,
    Tracer,
    activate,
    current_span_id,
    current_tracer,
    deterministic_span_id,
    load_trace_file,
    make_span_record,
    new_trace_id,
    span,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "ConstraintTally",
    "Counter",
    "ExplainCollector",
    "ExplainReport",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "SLOTracker",
    "SamplingProfiler",
    "Span",
    "StructuredLogger",
    "Tracer",
    "activate",
    "configure_logging",
    "current_span_id",
    "current_tracer",
    "deterministic_span_id",
    "exponential_buckets",
    "get_logger",
    "get_registry",
    "load_trace_file",
    "make_span_record",
    "new_trace_id",
    "peak_rss_bytes",
    "render_registry",
    "render_trace",
    "span",
    "validate_span",
    "validate_trace",
]
