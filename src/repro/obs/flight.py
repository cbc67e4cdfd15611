"""The flight recorder: a ring buffer of recently completed work.

Metrics aggregate and traces are per-job; what is missing when a 5xx
pages someone is the *recent history* — what the last N requests and
jobs were, how long they took, which traces to pull.  The flight
recorder keeps exactly that: a bounded, thread-safe ring buffer of
completed request/job summaries (route, path, status, latency, trace
id, the top spans of a traced job), oldest evicted first.

It is dumpable three ways, all wired in by the service:

* ``GET /debug/recent`` — the newest records as JSON;
* ``SIGUSR2`` — :meth:`dump_to` a timestamped file (a black-box pull
  from a live process without stopping it);
* automatically on any 5xx response — the service snapshots the buffer
  to disk (when a flight directory is configured) so the context around
  the failure survives even if the process dies next.

Records are plain JSON-ready dicts; ``seq`` is a monotonically
increasing sequence number so consumers can detect gaps after eviction.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

#: Spans kept per job record — the slowest few tell the story.
TOP_SPANS = 5

DEFAULT_CAPACITY = 256


def top_spans(
    spans: Sequence[Mapping[str, Any]], limit: int = TOP_SPANS
) -> List[Dict[str, Any]]:
    """The ``limit`` slowest spans of a trace, as compact summaries."""
    ranked = sorted(
        spans,
        key=lambda s: s.get("elapsed_s", 0.0),
        reverse=True,
    )
    return [
        {
            "name": span.get("name"),
            "elapsed_s": round(float(span.get("elapsed_s", 0.0)), 6),
            "status": span.get("status"),
        }
        for span in ranked[:limit]
    ]


class FlightRecorder:
    """A bounded ring of completed request/job summaries."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._recorded = 0

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        *,
        route: Optional[str] = None,
        path: Optional[str] = None,
        status: Optional[int] = None,
        latency_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
        spans: Optional[Sequence[Mapping[str, Any]]] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Append one completed-work summary; returns the record.

        ``route`` is a request's route template and ``path`` the raw
        path it was sent to — the metric labels keep only the template,
        the bounded ring may keep both.
        """
        record: Dict[str, Any] = {
            "kind": kind,
            "ts": time.time(),
        }
        if route is not None:
            record["route"] = route
        if path is not None:
            record["path"] = path
        if status is not None:
            record["status"] = int(status)
        if latency_ms is not None:
            record["latency_ms"] = round(float(latency_ms), 3)
        if trace_id is not None:
            record["trace_id"] = trace_id
        if spans:
            record["top_spans"] = top_spans(spans)
        if extra:
            record.update(extra)
        with self._lock:
            self._seq += 1
            self._recorded += 1
            record["seq"] = self._seq
            self._records.append(record)
        return record

    # ------------------------------------------------------------------
    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The newest records, newest first (a copy)."""
        with self._lock:
            records = list(self._records)
        records.reverse()
        if limit is not None:
            records = records[: max(0, limit)]
        return records

    def stats(self) -> Dict[str, Any]:
        """Gauges for ``/metrics``."""
        with self._lock:
            resident = len(self._records)
            recorded = self._recorded
        return {
            "capacity": self.capacity,
            "resident": resident,
            "recorded": recorded,
            "evicted": recorded - resident,
        }

    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the whole buffer, oldest first."""
        with self._lock:
            records = list(self._records)
            recorded = self._recorded
        return {
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "recorded_total": recorded,
            "records": records,
        }

    def dump_to(self, path: str) -> str:
        """Write :meth:`dump` to ``path`` (parents created); returns it."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle, indent=2, default=str)
            handle.write("\n")
        return path
