"""A unified, process-wide metrics registry for the CHOP stack.

Every subsystem used to keep its own gauge dict and the service glued
them together by flattening nested JSON at exposition time.  This module
replaces that patchwork with one typed, thread-safe registry holding
first-class metric families:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — set-to-current values;
* :class:`Histogram` — fixed exponential buckets, cumulative counts, a
  running sum, bucket-derived quantiles (:meth:`Histogram.quantile`) and
  an optional *exemplar* trace id per label set, so a latency spike in a
  dashboard links straight back to one trace.

Families are addressed by a base name (``engine_shard_seconds``) and an
immutable tuple of label names; ``labels(...)`` returns the child for
one label-value combination.  Creation is get-or-create: any subsystem
may ask the process-wide registry (:func:`get_registry`) for a family at
import time, and the first caller wins — a second registration with a
different type or label set is a programming error and raises.

Exposition is :func:`repro.obs.prometheus.render_registry` — the
Prometheus text format 0.0.4, emitted entirely from the samples of
:meth:`MetricsRegistry.collect`; the service's JSON ``/metrics`` reads
the same families (:mod:`repro.service.metrics`).

Legacy ``stats()`` suppliers plug in through
:meth:`MetricsRegistry.register_stats`: the supplier's numeric leaves
become real pull-gauges named ``<namespace>_<path>`` at collection time,
so existing subsystems appear in both expositions without rewriting
their bookkeeping.

Everything is stdlib-only; observation cost is one lock acquire plus a
bisect, cheap enough for per-request and per-shard call sites (never
per-combination — hot loops stay uninstrumented).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default latency buckets: exponential, 0.5 ms doubling up to ~16 s.
#: Chosen so interactive checks (1-100 ms), engine shards (10 ms - 1 s)
#: and background sweeps (seconds) all land mid-range.
DEFAULT_BUCKETS: Tuple[float, ...]


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from ``start``."""
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor ** i for i in range(count))


DEFAULT_BUCKETS = exponential_buckets(0.0005, 2.0, 16)

_LabelValues = Tuple[str, ...]


def _check_labels(
    labelnames: Sequence[str], labels: Mapping[str, Any]
) -> _LabelValues:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Family:
    """Common machinery: name, help, label names, child table, lock."""

    kind = "abstract"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[_LabelValues, Any] = {}

    def labels(self, **labels: Any) -> Any:
        """The child for one label-value combination (created on demand)."""
        values = _check_labels(self.labelnames, labels)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._new_child()
                self._children[values] = child
            return child

    def _default_child(self) -> Any:
        """The implicit child of an unlabeled family."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                f"use .labels(...)"
            )
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._new_child()
                self._children[()] = child
            return child

    def _new_child(self) -> Any:
        raise NotImplementedError

    def _items(self) -> List[Tuple[_LabelValues, Any]]:
        with self._lock:
            return sorted(self._children.items())

    def samples(self) -> List[Dict[str, Any]]:
        """JSON-ready sample documents, one per label-value combination."""
        out = []
        for values, child in self._items():
            doc = child.sample()
            doc["labels"] = dict(zip(self.labelnames, values))
            out.append(doc)
        return out


class _ValueChild:
    """One float behind a lock: the child of a counter or a gauge."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class _CounterChild(_ValueChild):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount


class Counter(_Family):
    """A monotonically increasing total (optionally labeled)."""

    kind = COUNTER

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild(_ValueChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Gauge(_Family):
    """A current value, replaced by each :meth:`set`."""

    kind = GAUGE

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_exemplar")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        # counts[i] observations fell in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._exemplar: Optional[Dict[str, Any]] = None

    def observe(
        self, value: float, exemplar: Optional[str] = None
    ) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if exemplar is not None:
                self._exemplar = {
                    "trace_id": exemplar, "value": value,
                }

    def snapshot(self) -> Tuple[List[int], float]:
        with self._lock:
            return list(self._counts), self._sum

    def sample(self) -> Dict[str, Any]:
        counts, total = self.snapshot()
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            cumulative[format_bound(bound)] = running
        cumulative["+Inf"] = running + counts[-1]
        doc: Dict[str, Any] = {
            "count": cumulative["+Inf"],
            "sum": total,
            "buckets": cumulative,
        }
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            doc[key] = quantile_from_counts(self._bounds, counts, q)
        with self._lock:
            if self._exemplar is not None:
                doc["exemplar"] = dict(self._exemplar)
        return doc


def format_bound(bound: float) -> str:
    """A bucket upper bound as Prometheus renders ``le`` values."""
    if bound == math.inf:
        return "+Inf"
    if bound == int(bound):
        return str(float(bound))
    return f"{bound:.10g}"


def quantile_from_counts(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Bucket-derived quantile: linear interpolation within the bucket.

    Mirrors Prometheus's ``histogram_quantile``: the target rank is
    ``q * count`` and the value interpolates linearly between the
    containing bucket's bounds (lower bound 0 for the first bucket).
    Observations in the +Inf bucket clamp to the last finite bound.
    Returns ``None`` for an empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return None
    q = min(1.0, max(0.0, q))
    rank = q * total
    running = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        running += count
        if running >= rank and count > 0:
            fraction = (rank - (running - count)) / count
            return lower + (bound - lower) * fraction
    return float(bounds[-1]) if bounds else None


class Histogram(_Family):
    """Fixed-bucket latency/size distribution with exemplar support."""

    kind = HISTOGRAM

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets or DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if any(b <= 0 for b in bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"bucket bounds must be positive and distinct: {bounds}"
            )
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(
        self, value: float, exemplar: Optional[str] = None
    ) -> None:
        self._default_child().observe(value, exemplar=exemplar)

    def aggregate(
        self, where: Optional[Mapping[str, str]] = None
    ) -> Tuple[List[int], int, float]:
        """``(bucket counts, total count, sum)`` over matching children.

        ``where`` filters children by label equality (subset match);
        ``None`` aggregates every child.
        """
        counts = [0] * (len(self.buckets) + 1)
        total_sum = 0.0
        for values, child in self._items():
            labels = dict(zip(self.labelnames, values))
            if where and any(
                labels.get(k) != str(v) for k, v in where.items()
            ):
                continue
            child_counts, child_sum = child.snapshot()
            for i, c in enumerate(child_counts):
                counts[i] += c
            total_sum += child_sum
        return counts, sum(counts), total_sum

    def quantile(
        self, q: float, where: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """Bucket-derived quantile over (a label subset of) the family."""
        counts, total, _ = self.aggregate(where)
        if total == 0:
            return None
        return quantile_from_counts(self.buckets, counts, q)

    def bucket_width_at(self, value: float) -> float:
        """The width of the bucket containing ``value`` (error bound)."""
        index = bisect.bisect_left(self.buckets, value)
        if index >= len(self.buckets):
            return math.inf
        lower = self.buckets[index - 1] if index else 0.0
        return self.buckets[index] - lower


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A thread-safe, get-or-create table of metric families.

    One instance is process-wide (:func:`get_registry`); tests build
    private instances for isolation.  ``prefix`` is prepended to every
    exposed name (``requests_total`` -> ``chop_requests_total``).
    """

    def __init__(self, prefix: str = "chop") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._stats_suppliers: Dict[
            str, Callable[[], Mapping[str, Any]]
        ] = {}

    # -- family creation -----------------------------------------------
    def _get_or_create(
        self, cls, name: str, help: str,
        labelnames: Sequence[str], **kwargs: Any,
    ):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def register_stats(
        self, namespace: str, supplier: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Expose a legacy ``stats()`` supplier as pull-gauges.

        At collection time the supplier runs once and each numeric leaf
        of its (possibly nested) result becomes a gauge sample named
        ``<namespace>_<path>`` (booleans as 0/1, strings and lists
        skipped).  Suppliers must be thread-safe and cheap.
        """
        with self._lock:
            self._stats_suppliers[namespace] = supplier

    def unregister_stats(
        self, namespace: str, supplier: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Withdraw ``supplier`` — only if it still owns ``namespace``.

        A closed service withdraws its suppliers so the registry stops
        reporting (and keeping alive) its subsystems; a later service
        that re-registered the namespace keeps it.
        """
        with self._lock:
            if self._stats_suppliers.get(namespace) is supplier:
                del self._stats_suppliers[namespace]

    def stats_suppliers(
        self,
    ) -> List[Tuple[str, Callable[[], Mapping[str, Any]]]]:
        """The registered ``(namespace, supplier)`` pairs, sorted.

        A copy taken under the lock: callers invoke the suppliers
        outside it.
        """
        with self._lock:
            return sorted(self._stats_suppliers.items())

    # -- collection ----------------------------------------------------
    def _stats_samples(self) -> List[Dict[str, Any]]:
        """The supplier-derived gauge families, evaluated now."""
        out: List[Dict[str, Any]] = []
        for namespace, supplier in self.stats_suppliers():
            leaves: List[Tuple[str, float]] = []
            _numeric_leaves(leaves, [namespace], supplier())
            for path, value in leaves:
                out.append(
                    {
                        "name": path,
                        "type": GAUGE,
                        "help": f"{namespace} subsystem gauge",
                        "samples": [{"labels": {}, "value": value}],
                    }
                )
        return out

    def collect(self) -> List[Dict[str, Any]]:
        """Every family as a JSON-ready document, sorted by name.

        Typed families first-class; supplier-derived gauges appended.
        Names are *base* names — expositions add :attr:`prefix`.
        """
        with self._lock:
            families = sorted(self._families.items())
        docs = [
            {
                "name": name,
                "type": family.kind,
                "help": family.help,
                "samples": family.samples(),
            }
            for name, family in families
        ]
        docs.extend(self._stats_samples())
        docs.sort(key=lambda d: d["name"])
        return docs


def _numeric_leaves(
    out: List[Tuple[str, float]], prefix: List[str], value: Any
) -> None:
    if isinstance(value, Mapping):
        for key in sorted(value, key=str):
            _numeric_leaves(out, prefix + [str(key)], value[key])
        return
    if isinstance(value, bool):
        out.append(("_".join(prefix), 1.0 if value else 0.0))
    elif isinstance(value, (int, float)):
        out.append(("_".join(prefix), float(value)))
    # strings, None, lists: not representable as one gauge — skipped.


_REGISTRY_LOCK = threading.Lock()
_REGISTRY: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem shares."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        if _REGISTRY is None:
            _REGISTRY = MetricsRegistry()
        return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous = _REGISTRY or MetricsRegistry()
        _REGISTRY = registry
        return previous
