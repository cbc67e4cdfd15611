"""The on-disk prediction cache.

Prediction is the expensive half of a feasibility check (the search only
recombines predicted designs), and predictions depend on nothing but the
project inputs — so they can outlive the process.  Each entry is keyed
on a *fingerprint-derived namespace*: the canonical
:func:`repro.io.project.project_fingerprint` of the project document
*plus* an independent digest of the resolved library and clock scheme
(belt and braces: a preset label like ``"table1"`` must not alias across
library revisions) *plus* the cache format version.  Repeated
``chop check`` runs and server restarts on an unchanged project then
skip BAD prediction entirely.

Guarantees of :class:`DiskPredictionCache`:

* writes are atomic (temp file + ``os.replace``), so a crashed or
  concurrent writer — a ``chop check`` and a server sharing one
  ``--disk-cache`` directory — can never leave a torn entry;
* a reader that finds a corrupt or version-mismatched file treats it as
  a miss and *quarantines* it (renamed to ``*.corrupt`` for post-mortem,
  never read again);
* a failed write is tried again on a fixed short schedule
  (:data:`STORE_ATTEMPTS`, :data:`STORE_RETRY_DELAY_S`) — a sick disk
  degrades the cache to a no-op, it never fails a check
  (:meth:`store_safely`);
* the ``$CHOP_FAULTS`` sites ``cache_store`` / ``cache_load`` fire in
  :meth:`~DiskPredictionCache.store` and
  :meth:`~DiskPredictionCache.load`, so fault tests exercise the
  production recovery branches.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.library.library import ComponentLibrary
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span
from repro.resilience.faults import maybe_inject

#: Bump whenever the pickled payload layout or the prediction model's
#: output semantics change; every older entry becomes a miss.
CACHE_VERSION = 1

#: Writes of one :meth:`DiskPredictionCache.store`, the first included;
#: reads are never retried — a defective entry is a miss by contract.
STORE_ATTEMPTS = 3

#: Seconds slept after the first failed write; the wait doubles after
#: each further failure (10 ms, then 20 ms).
STORE_RETRY_DELAY_S = 0.01


def library_clock_digest(
    library: ComponentLibrary, clocks: ClockScheme
) -> str:
    """A stable digest of the resolved library and clock scheme."""
    parts: List[str] = [library.name]
    for op_type in library.supported_op_types():
        for component in library.components_for(op_type):
            parts.append(
                f"{component.name}:{component.op_type.value}:"
                f"{component.bit_width}:{component.area_mil2!r}:"
                f"{component.delay_ns!r}"
            )
    for cell in (library.register, library.mux):
        parts.append(f"{cell.name}:{cell.area_mil2!r}:{cell.delay_ns!r}")
    parts.append(
        f"clocks:{clocks.main_cycle_ns!r}:{clocks.dp_multiplier}:"
        f"{clocks.transfer_multiplier}"
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


class DiskPredictionCache:
    """A directory of pickled per-project prediction lists.

    Key derivation, payload validation, atomic writes, corrupt-entry
    quarantine, repeated writes after a failure, fault-injection sites
    and counters.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        version: int = CACHE_VERSION,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.version = version
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._invalidated = 0
        self._quarantined = 0
        self._store_retries = 0
        self._store_failures = 0
        self._op_seconds = get_registry().histogram(
            "diskcache_op_seconds",
            "Disk prediction-cache operation latency by op and outcome",
            labelnames=("op", "outcome"),
        )

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    def key_for(
        self,
        fingerprint: str,
        library: ComponentLibrary,
        clocks: ClockScheme,
    ) -> str:
        """Cache key for a project fingerprint under a resolved setup."""
        digest = library_clock_digest(library, clocks)
        return hashlib.sha256(
            f"v{self.version}|{fingerprint}|{digest}".encode("utf-8")
        ).hexdigest()

    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.predictions.pkl"

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    def load(
        self, key: str
    ) -> Optional[Dict[str, List[DesignPrediction]]]:
        """The cached per-partition prediction lists, or ``None``.

        Any defect — missing file, unreadable pickle, version or key
        mismatch — is a miss; defective files are quarantined (renamed
        to ``*.corrupt``) so they cannot fail again, and the next store
        rewrites the entry.  Only ``version``, ``key`` and
        ``predictions`` are read, so entries that carry further fields
        load as well.
        """
        started = time.perf_counter()

        def timed(outcome: str) -> None:
            self._op_seconds.labels(op="load", outcome=outcome).observe(
                time.perf_counter() - started
            )

        with trace_span("diskcache.load", key=key[:12]) as sp:
            path = self.path_for(key)
            try:
                maybe_inject("cache_load")
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
            except FileNotFoundError:
                self._count(hit=False)
                sp.put("hit", False)
                timed("miss")
                return None
            except Exception:
                # Unpickling attacker-grade junk can raise nearly
                # anything (ValueError for a bad protocol byte,
                # UnpicklingError, EOFError, AttributeError, ...).  The
                # contract is uniform: any defect is a quarantined miss.
                self._discard(path)
                self._count(hit=False)
                sp.put("hit", False)
                timed("quarantined")
                return None
            if (
                not isinstance(payload, dict)
                or payload.get("version") != self.version
                or payload.get("key") != key
                or not isinstance(payload.get("predictions"), dict)
            ):
                self._discard(path)
                self._count(hit=False)
                sp.put("hit", False)
                timed("quarantined")
                return None
            self._count(hit=True)
            sp.put("hit", True)
            sp.add("partitions", len(payload["predictions"]))
            timed("hit")
            return payload["predictions"]

    def store(
        self,
        key: str,
        predictions: Mapping[str, Sequence[DesignPrediction]],
    ) -> None:
        """Atomically persist the prediction lists under ``key``.

        A write that raises ``OSError`` is tried again up to
        :data:`STORE_ATTEMPTS` writes in all; the last failure
        propagates (use :meth:`store_safely` at call sites where a sick
        disk must not fail the check).
        """
        started = time.perf_counter()

        def timed(outcome: str) -> None:
            self._op_seconds.labels(op="store", outcome=outcome).observe(
                time.perf_counter() - started
            )

        with trace_span(
            "diskcache.store", key=key[:12],
        ) as sp:
            payload = {
                "version": self.version,
                "key": key,
                "predictions": {
                    name: list(preds)
                    for name, preds in sorted(predictions.items())
                },
            }
            sp.add("partitions", len(payload["predictions"]))
            for attempt in range(1, STORE_ATTEMPTS + 1):
                try:
                    maybe_inject("cache_store")
                    self._write(key, payload)
                    break
                except OSError:
                    if attempt == STORE_ATTEMPTS:
                        with self._lock:
                            self._store_failures += 1
                        timed("failed")
                        raise
                    with self._lock:
                        self._store_retries += 1
                    sp.add("retries")
                    time.sleep(STORE_RETRY_DELAY_S * 2 ** (attempt - 1))
            with self._lock:
                self._stores += 1
            timed("ok")

    def store_safely(
        self,
        key: str,
        predictions: Mapping[str, Sequence[DesignPrediction]],
    ) -> bool:
        """Best-effort :meth:`store`: swallow exhausted write errors.

        The graceful-degradation entry point for the CLI and the
        service — a cache that cannot persist degrades to a no-op
        (visible as ``store_failures`` in :meth:`stats`) instead of
        failing the feasibility check it rides on.
        """
        try:
            self.store(key, predictions)
        except OSError:
            return False
        return True

    def _write(self, key: str, payload: Dict[str, Any]) -> None:
        """One atomic temp-file + ``os.replace`` write attempt."""
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".pkl", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _discard(self, path: pathlib.Path) -> None:
        """Quarantine a defective entry instead of deleting it.

        The rename takes the entry out of the lookup path (the next
        load is a clean miss, the next store rewrites it) while keeping
        the bytes on disk for post-mortem.  Repeated corruption of the
        same key overwrites the single quarantine file, so quarantines
        cannot accumulate unboundedly.
        """
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self._invalidated += 1
            self._quarantined += 1

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/store counters for ``/metrics`` and the CLI."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "directory": str(self.directory),
                "version": self.version,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "invalidated": self._invalidated,
                "quarantined": self._quarantined,
                "store_retries": self._store_retries,
                "store_failures": self._store_failures,
                "hit_rate": (
                    round(self._hits / total, 4) if total else None
                ),
            }
