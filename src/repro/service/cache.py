"""Thread-safe single-flight LRU cache for prediction/verdict memoization.

Interactive sessions re-check the same partitioning repeatedly after
small edits, so the serving layer memoizes BAD predictions and
feasibility verdicts keyed on (partition content hash, library id, style
options) — in practice the project fingerprint plus the check options,
since the fingerprint already covers the partition contents, library and
style (see :func:`repro.io.project.project_fingerprint`).

The cache is *single-flight*: when several threads ask for the same cold
key at once, exactly one computes while the rest block on its future and
are counted as hits.  Failures are never cached — the leader's exception
propagates to every waiter and the key is released for a retry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, Tuple


class LRUCache:
    """A bounded LRU map with hit/miss counters and single-flight fills."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Future]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # core API
    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: Hashable, factory: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """Return ``(value, hit)`` for ``key``, computing at most once.

        ``hit`` is ``True`` when the value came from the cache (including
        waiting on another thread's in-flight computation of the same
        key), ``False`` for the one thread that ran ``factory``.
        """
        with self._lock:
            future = self._entries.get(key)
            if future is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                leader = False
            else:
                future = Future()
                self._entries[key] = future
                self._misses += 1
                leader = True
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        if leader:
            try:
                future.set_result(factory())
            except BaseException as exc:
                future.set_exception(exc)
                with self._lock:
                    if self._entries.get(key) is future:
                        del self._entries[key]
                raise
            return future.result(), False
        return future.result(), True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/metrics``."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / total) if total else 0.0,
            }


def check_cache_key(
    fingerprint: str, heuristic: str, prune: bool = True
) -> Tuple[str, str, bool]:
    """The memoization key for one feasibility check.

    The project fingerprint hashes the canonicalized document — graph,
    library, clocks, style, criteria, chip set, memories and partition
    contents — so two checks share a key exactly when the paper's six
    input groups and the search options all agree.
    """
    return (fingerprint, heuristic, prune)
