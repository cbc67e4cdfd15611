"""The metrics registry: families, labels, histograms, exposition."""

import math
import statistics
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    format_bound,
    get_registry,
    quantile_from_counts,
    set_registry,
)
from repro.obs.prometheus import (
    escape_label_value,
    metric_name,
    render_registry,
    sample_line,
    unescape_label_value,
)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
class TestFamilies:
    def test_counter_counts_up(self):
        registry = MetricsRegistry()
        c = registry.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n").inc(-1)

    def test_labeled_counter_children_are_independent(self):
        registry = MetricsRegistry()
        c = registry.counter("hits", labelnames=("route",))
        c.labels(route="a").inc()
        c.labels(route="a").inc()
        c.labels(route="b").inc()
        values = {
            s["labels"]["route"]: s["value"] for s in c.samples()
        }
        assert values == {"a": 2, "b": 1}

    def test_unlabeled_shortcut_on_labeled_family_raises(self):
        registry = MetricsRegistry()
        c = registry.counter("hits", labelnames=("route",))
        with pytest.raises(ValueError, match="labels"):
            c.inc()

    def test_wrong_label_names_raise(self):
        registry = MetricsRegistry()
        c = registry.counter("hits", labelnames=("route",))
        with pytest.raises(ValueError, match="expected labels"):
            c.labels(path="x")

    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        assert g.value == 0.0
        g.set(10)
        g.set(3)
        assert g.value == 3.0

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x", "help one")
        b = registry.counter("x", "help two")
        assert a is b

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_labelset_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x", labelnames=("b",))

    def test_get_by_name(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        assert registry.get("x") is c
        assert registry.get("missing") is None


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_exponential_buckets(self):
        buckets = exponential_buckets(1.0, 2.0, 4)
        assert buckets == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            exponential_buckets(0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_default_buckets_span_interactive_to_batch(self):
        assert DEFAULT_BUCKETS[0] == 0.0005
        assert DEFAULT_BUCKETS[-1] == pytest.approx(16.384)

    def test_invalid_bucket_bounds_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(-1.0, 2.0))

    def test_observe_fills_cumulative_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        sample = h.samples()[0]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(105.0)
        assert sample["buckets"] == {
            "1.0": 1, "2.0": 2, "4.0": 3, "+Inf": 4,
        }

    def test_boundary_value_lands_in_its_bucket(self):
        # le is inclusive: an observation exactly at a bound counts in
        # that bucket, matching Prometheus semantics.
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.samples()[0]["buckets"] == {
            "1.0": 1, "2.0": 1, "+Inf": 1,
        }

    def test_exemplar_kept_per_label_set(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", labelnames=("route",))
        h.labels(route="a").observe(0.25, exemplar="trace-123")
        sample = h.samples()[0]
        assert sample["exemplar"] == {
            "trace_id": "trace-123", "value": 0.25,
        }

    def test_quantile_from_counts_interpolates(self):
        # 10 observations uniform in the (0, 1] bucket: p50 = 0.5.
        assert quantile_from_counts((1.0,), (10, 0), 0.5) == (
            pytest.approx(0.5)
        )
        # Empty histogram has no quantile.
        assert quantile_from_counts((1.0,), (0, 0), 0.5) is None
        # Overflow clamps to the last finite bound.
        assert quantile_from_counts((1.0,), (0, 5), 0.99) == 1.0

    def test_family_quantile_with_label_filter(self):
        registry = MetricsRegistry()
        h = registry.histogram(
            "h", labelnames=("route",), buckets=(1.0, 10.0)
        )
        for _ in range(10):
            h.labels(route="fast").observe(0.5)
            h.labels(route="slow").observe(5.0)
        fast = h.quantile(0.5, where={"route": "fast"})
        slow = h.quantile(0.5, where={"route": "slow"})
        assert fast < 1.0 < slow

    def test_bucket_width_at(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 4.0))
        assert h.bucket_width_at(0.5) == 1.0
        assert h.bucket_width_at(2.0) == 3.0
        assert h.bucket_width_at(100.0) == math.inf

    def test_concurrent_observation_conserves_totals(self):
        registry = MetricsRegistry()
        h = registry.histogram(
            "h", labelnames=("t",), buckets=DEFAULT_BUCKETS
        )
        threads, per_thread = 8, 500

        def work(index: int) -> None:
            child = h.labels(t=str(index % 2))
            for i in range(per_thread):
                child.observe(0.001 * (i % 50 + 1))

        pool = [
            threading.Thread(target=work, args=(i,))
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        counts, total, _ = h.aggregate()
        assert total == threads * per_thread
        # The +Inf cumulative count in every sample equals its count.
        for sample in h.samples():
            assert sample["buckets"]["+Inf"] == sample["count"]

    def test_bucket_quantiles_agree_with_sample_percentiles(self):
        """Acceptance: bucket p50/p95 within one bucket width of the
        sample-based percentile over the same observations."""
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=DEFAULT_BUCKETS)
        samples = [0.0007 * (i % 97 + 1) for i in range(500)]
        for v in samples:
            h.observe(v)
        # The inclusive method interpolates at rank q * (n - 1), the
        # linear definition (numpy's default).
        exact_percentiles = statistics.quantiles(
            samples, n=100, method="inclusive"
        )
        for q, pct in ((0.5, 50), (0.95, 95)):
            derived = h.quantile(q)
            exact = exact_percentiles[pct - 1]
            assert derived is not None
            assert abs(derived - exact) <= h.bucket_width_at(exact)


# ----------------------------------------------------------------------
# registry collection and stats suppliers
# ----------------------------------------------------------------------
class TestRegistry:
    def test_collect_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("b_depth").set(2)
        registry.counter("a_total").inc()
        docs = registry.collect()
        assert [d["name"] for d in docs] == ["a_total", "b_depth"]
        assert [d["type"] for d in docs] == ["counter", "gauge"]

    def test_register_stats_walks_numeric_leaves(self):
        registry = MetricsRegistry()
        registry.register_stats(
            "cache",
            lambda: {
                "hits": 3,
                "nested": {"deep": 1.5},
                "flag": True,
                "name": "skipped-string",
                "items": [1, 2],
            },
        )
        docs = {d["name"]: d for d in registry.collect()}
        assert docs["cache_hits"]["samples"][0]["value"] == 3.0
        assert docs["cache_nested_deep"]["samples"][0]["value"] == 1.5
        assert docs["cache_flag"]["samples"][0]["value"] == 1.0
        assert "cache_name" not in docs
        assert "cache_items" not in docs

    def test_snapshot_prefixes_names(self):
        """The text exposition, the registry's one snapshot, prefixes
        every family name with the registry's prefix."""
        registry = MetricsRegistry(prefix="svc")
        registry.counter("requests_total").inc()
        assert "svc_requests_total 1" in render_registry(registry)

    def test_global_registry_roundtrip(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


# ----------------------------------------------------------------------
# prometheus rendering
# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_metric_name_sanitised(self):
        assert metric_name("a.b-c") == "chop_a_b_c"
        assert metric_name("2fast") == "chop__2fast"

    def test_label_escaping_round_trips(self):
        for raw in (
            'quote " inside',
            "back\\slash",
            "new\nline",
            'all \\ of " them\n',
            "plain",
        ):
            assert unescape_label_value(escape_label_value(raw)) == raw

    def test_sample_line_sorts_and_escapes_labels(self):
        line = sample_line("m", {"b": 'x"y', "a": "1"}, 2)
        assert line == 'm{a="1",b="x\\"y"} 2'

    def test_render_registry_full_families(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests").inc(3)
        h = registry.histogram(
            "latency_seconds",
            "Latency",
            labelnames=("route",),
            buckets=(0.1, 1.0),
        )
        h.labels(route="GET /x").observe(0.05)
        h.labels(route="GET /x").observe(0.5)
        text = render_registry(registry)
        assert "# HELP chop_requests_total Total requests" in text
        assert "# TYPE chop_requests_total counter" in text
        assert "chop_requests_total 3" in text
        assert "# TYPE chop_latency_seconds histogram" in text
        assert (
            'chop_latency_seconds_bucket{le="0.1",route="GET /x"} 1'
            in text
        )
        assert (
            'chop_latency_seconds_bucket{le="+Inf",route="GET /x"} 2'
            in text
        )
        assert 'chop_latency_seconds_count{route="GET /x"} 2' in text
        assert text.endswith("\n")

    def test_format_bound(self):
        assert format_bound(math.inf) == "+Inf"
        assert format_bound(1.0) == "1.0"
        assert format_bound(0.0005) == "0.0005"
