"""Span-based tracing for the whole CHOP stack.

One designer action — a CLI check, a service job — becomes one *trace*:
a tree of timed *spans* (session → search → engine run → shards → merge)
each carrying wall-clock bounds, a status, free-form attributes and
numeric counters (combinations evaluated, prune kills, cache hits).

Design constraints, in order:

* **Zero cost when off.**  Instrumentation sites call the module-level
  :func:`span` helper, which reads one :mod:`contextvars` variable and
  hands back a shared no-op context manager when no tracer is active —
  hot loops never pay for tracing they did not ask for (the bench gate
  is <2% overhead on ``bench_parallel.py``).
* **Thread safety by construction.**  The active tracer/span pair lives
  in a context variable, so concurrent service jobs and request threads
  each see their own span stack; the tracer's finished-span buffer and
  sink are lock-protected.
* **Process safety by shipping.**  Worker processes cannot append to the
  parent's tracer, so the engine hands each shard task its trace id,
  workers build their span *records* locally (with span ids derived
  deterministically from the trace id and shard index), and the records
  travel back inside the shard results to be re-parented under the
  engine's run span on merge — the tree is identical no matter which
  worker ran which shard, or whether the pool ran at all.

Finished spans are JSON records (one per line in a
:class:`JsonlSink`-backed trace file); the schema is documented in
``docs/observability.md`` and validated by :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SearchCancelled

#: Bumped whenever a span record gains, loses or re-types a field; the
#: schema checker refuses records from other versions.
TRACE_SCHEMA_VERSION = 1

#: Spans retained in a tracer's in-memory buffer.  A trace is one
#: designer action, so this is generous; the bound only protects a
#: long-lived service from a pathological span storm.
MAX_BUFFERED_SPANS = 50_000

OK = "ok"
ERROR = "error"
CANCELLED = "cancelled"


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


def deterministic_span_id(*parts: Any) -> str:
    """A span id derived from stable inputs (trace id, shard index, ...).

    Worker processes use this so a shard's span id is a pure function of
    the trace and the shard — reruns and retries collide on purpose,
    and the merged tree is reproducible.
    """
    joined = "/".join(str(part) for part in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def make_span_record(
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    name: str,
    start_s: float,
    end_s: float,
    status: str = OK,
    counters: Optional[Dict[str, Any]] = None,
    attrs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One finished-span JSON record (the only record shape we emit)."""
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_s": start_s,
        "end_s": end_s,
        "elapsed_s": max(0.0, end_s - start_s),
        "status": status,
        "counters": dict(counters or {}),
        "attrs": dict(attrs or {}),
        "pid": os.getpid(),
    }


class Span:
    """One in-flight span.  Mutate through :meth:`add` and :meth:`put`."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start_s", "counters", "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        **attrs: Any,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = time.time()
        self.counters: Dict[str, Any] = {}
        self.attrs: Dict[str, Any] = dict(attrs)

    def add(self, counter: str, amount: int = 1) -> None:
        """Increment a numeric counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def put(self, key: str, value: Any) -> None:
        """Set a free-form (JSON-serializable) attribute."""
        self.attrs[key] = value

    def __bool__(self) -> bool:
        return True


class _NullSpan:
    """Absorbs instrumentation when tracing is off; always falsy.

    ``counters`` is ``None`` so hot loops can hand ``sp.counters``
    straight to ``evaluate_range(counters=...)`` and pay nothing when
    tracing is off.
    """

    __slots__ = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    counters: Optional[Dict[str, Any]] = None

    def add(self, counter: str, amount: int = 1) -> None:
        pass

    def put(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, stateless no-op context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_CONTEXT = _NullSpanContext()

#: (tracer, active span id) for the current thread/task, or ``None``.
_ACTIVE: "contextvars.ContextVar[Optional[Tuple[Tracer, Optional[str]]]]"
_ACTIVE = contextvars.ContextVar("chop_obs_active", default=None)


def current_tracer() -> Optional["Tracer"]:
    """The tracer installed by :func:`activate`, if any."""
    state = _ACTIVE.get()
    return state[0] if state is not None else None


def current_span_id() -> Optional[str]:
    """The id of the innermost open span, if tracing is active."""
    state = _ACTIVE.get()
    return state[1] if state is not None else None


def span(name: str, **attrs: Any):
    """Open a child span on the active tracer — or do nothing.

    The universal instrumentation entry point::

        with span("search.enumeration", prune=True) as sp:
            sp.add("combinations", trials)   # no-op when tracing is off

    ``sp`` is falsy when no tracer is active, so hot paths can guard
    optional work with ``if sp:``.
    """
    state = _ACTIVE.get()
    if state is None:
        return _NULL_CONTEXT
    return state[0].span(name, **attrs)


class activate:
    """Install ``tracer`` as the current context's tracer.

    Re-entrant per thread/task through context variables; the previous
    state (usually none) is restored on exit.  Usable as a context
    manager only — spans opened inside nest under it automatically.
    """

    __slots__ = ("tracer", "_token")

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Tracer":
        self._token = _ACTIVE.set((self.tracer, None))
        return self.tracer

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


class _SpanContext:
    """Context manager for one real span; sets/restores the active id."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span_obj: Span) -> None:
        self._tracer = tracer
        self._span = span_obj
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set((self._tracer, self._span.span_id))
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is None:
            status = OK
        elif isinstance(exc, SearchCancelled):
            status = CANCELLED
        else:
            status = ERROR
            self._span.put("error", f"{exc_type.__name__}: {exc}")
        self._tracer.finish(self._span, status=status)
        return None  # never swallow the exception


class JsonlSink:
    """Appends one JSON line per finished span to a file, under a lock."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def write_span(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class Tracer:
    """One trace: an id, a span buffer, and an optional JSONL sink.

    Thread-safe; share one tracer across the threads of a single
    designer action (the service does exactly that per job).  Worker
    *processes* never see the tracer — they ship span records back (see
    the module docstring) and the engine replays them through
    :meth:`emit`.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        sink: Optional[JsonlSink] = None,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.sink = sink
        self._lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []
        self._dropped = 0

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a span as a child of the current context's span."""
        span_obj = Span(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=current_span_id(),
            name=name,
            **attrs,
        )
        return _SpanContext(self, span_obj)

    def finish(self, span_obj: Span, status: str = OK) -> None:
        """Close a span and buffer/sink its record."""
        self.emit(
            make_span_record(
                trace_id=span_obj.trace_id,
                span_id=span_obj.span_id,
                parent_id=span_obj.parent_id,
                name=span_obj.name,
                start_s=span_obj.start_s,
                end_s=time.time(),
                status=status,
                counters=span_obj.counters,
                attrs=span_obj.attrs,
            )
        )

    def emit(self, record: Dict[str, Any]) -> None:
        """Record an already-finished span (own, or shipped from a worker)."""
        with self._lock:
            if len(self._finished) < MAX_BUFFERED_SPANS:
                self._finished.append(record)
            else:
                self._dropped += 1
        if self.sink is not None:
            self.sink.write_span(record)

    # ------------------------------------------------------------------
    # reading the trace back
    # ------------------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Finished span records, ordered by start time (a copy)."""
        with self._lock:
            records = list(self._finished)
        return sorted(records, key=lambda r: (r["start_s"], r["span_id"]))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "spans": len(self._finished),
                "dropped": self._dropped,
            }

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


def load_trace_file(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into span records (blank lines skipped)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # Bad JSON, an integer past the digit limit, or nesting
                # past the parser's recursion limit.
                raise ValueError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_no}: span record must be an object"
                )
            spans.append(record)
    return spans
