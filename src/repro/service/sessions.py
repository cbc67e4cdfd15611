"""Multi-tenant registry of loaded designer sessions.

Each uploaded project document becomes one :class:`ChopSession` held in
memory, addressed by a project id derived from the document fingerprint —
uploads are therefore idempotent: re-posting an identical document maps
to the already-loaded session.  A bounded LRU eviction policy keeps
memory proportional to the number of *active* designer sessions, not the
number of documents ever uploaded.

Because the session owns its :class:`repro.eval.EvaluationContext`, its
prediction caches and its store of task graphs and integration plans
survive across checks and jobs on the same project: a re-check of a
state the session has checked twice reuses that state's schedules.
:meth:`SessionRegistry.eval_stats` aggregates every resident context's
counters for the ``/metrics`` ``eval`` gauge.

``ChopSession`` itself is not thread-safe, so each entry carries a lock
that the serving layer holds while a check runs against that session.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.chop import ChopSession
from repro.io.project import load_project, project_fingerprint


@dataclass
class SessionEntry:
    """One loaded project and its serving-side bookkeeping."""

    project_id: str
    fingerprint: str
    session: ChopSession
    created_at: float = field(default_factory=time.time)
    lock: threading.RLock = field(default_factory=threading.RLock)

    def to_dict(self) -> Dict[str, Any]:
        partitioning = self.session.partitioning()
        return {
            "project_id": self.project_id,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "graph": self.session.graph.name,
            "operations": self.session.graph.op_count(),
            "partitions": sorted(partitioning.partitions),
            "chips": sorted(self.session.chips),
        }


class SessionRegistry:
    """Fingerprint-addressed LRU store of live :class:`ChopSession`s."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(
                f"session capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._evictions = 0

    def put(self, document: Dict[str, Any]) -> Tuple[SessionEntry, bool]:
        """Load (or find) the session for a document.

        Returns ``(entry, created)``; ``created`` is ``False`` when an
        identical document was already resident.  Raises
        :class:`repro.errors.SpecificationError` on a malformed document.
        """
        fingerprint = project_fingerprint(document)
        project_id = fingerprint[:16]
        with self._lock:
            entry = self._entries.get(project_id)
            if entry is not None:
                self._entries.move_to_end(project_id)
                return entry, False
        # Load outside the lock — parsing a big graph should not stall
        # other tenants.  A racing identical upload just loads twice and
        # the second insert wins harmlessly (same fingerprint).
        session = load_project(document)
        entry = SessionEntry(
            project_id=project_id,
            fingerprint=fingerprint,
            session=session,
        )
        with self._lock:
            existing = self._entries.get(project_id)
            if existing is not None:
                self._entries.move_to_end(project_id)
                return existing, False
            self._entries[project_id] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry, True

    def get(self, project_id: str) -> Optional[SessionEntry]:
        """Look up a resident session, refreshing its LRU position."""
        with self._lock:
            entry = self._entries.get(project_id)
            if entry is not None:
                self._entries.move_to_end(project_id)
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Gauges for ``/metrics``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "evictions": self._evictions,
            }

    def eval_stats(self) -> Dict[str, Any]:
        """Aggregated evaluation-context gauges across resident sessions.

        Counters only (sums are meaningful); reading a session's stats
        dict needs no per-entry lock — counters are plain ints updated
        under the entry lock, and a slightly stale sum is fine for a
        gauge.
        """
        with self._lock:
            entries = list(self._entries.values())
        agg: Dict[str, Any] = {
            "sessions": len(entries),
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
            "seeded": 0,
            "taskgraph_full_builds": 0,
            "taskgraph_reuses": 0,
        }
        for entry in entries:
            stats = entry.session.eval_stats()
            agg["hits"] += stats["hits"]
            agg["misses"] += stats["misses"]
            agg["evictions"] += stats["evictions"]
            agg["invalidations"] += stats["invalidations"]
            agg["seeded"] += stats["seeded"]
            taskgraph = stats["taskgraph"]
            agg["taskgraph_full_builds"] += taskgraph["full_builds"]
            agg["taskgraph_reuses"] += taskgraph["reuses"]
        lookups = agg["hits"] + agg["misses"]
        agg["hit_ratio"] = (
            round(agg["hits"] / lookups, 4) if lookups else 0.0
        )
        return agg
