"""Deterministic fault injection for resilience tests.

Faults are declared in the ``$CHOP_FAULTS`` environment variable as a
comma-separated spec and fire at named *sites* compiled into the
production code paths (:func:`maybe_inject` calls).  The environment is
the transport deliberately: worker *processes* inherit it under both
``fork`` and ``spawn``, so a single spec reaches every layer of the
engine without any plumbing.

Spec grammar (whitespace-free)::

    CHOP_FAULTS="shard=2,cache_store=1"

Site semantics:

====================  =================================================
``shard=N``           ``InjectedFault`` in the worker evaluating shard
                      index ``N`` (every parallel run; the engine's
                      serial retry path does not re-fire it)
``shard_exit=N``      hard ``os._exit(13)`` of the worker holding shard
                      ``N`` — a true process death, breaks the pool
``cache_store=K``     ``InjectedFault`` on the first ``K`` prediction-
                      cache writes of this process
                      (:meth:`repro.cache.DiskPredictionCache.store`)
``cache_load=K``      ``InjectedFault`` on the first ``K`` prediction-
                      cache reads of this process (observed as a miss)
====================  =================================================

:class:`InjectedFault` subclasses :class:`OSError` on purpose: the
engine's crash path and the cache's defect handling already classify
``OSError`` as "infrastructure died", so injected faults exercise the
*same* recovery branches a real worker death or disk error would.

When ``$CHOP_FAULTS`` is unset, :func:`maybe_inject` is one dict lookup
— the hooks cost nothing in production.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

#: Environment variable carrying the active fault spec.
FAULTS_ENV = "CHOP_FAULTS"

#: Sites where the value means "fire when index == value".
_INDEXED_SITES = frozenset({"shard", "shard_exit"})

#: Sites where the value means "fire on the first value invocations".
_COUNTED_SITES = frozenset({"cache_store", "cache_load"})

_KNOWN_SITES = _INDEXED_SITES | _COUNTED_SITES

#: Exit status of a ``shard_exit`` worker death (mirrors the engine
#: test-suite's hand-rolled ``os._exit(13)`` crash idiom).
EXIT_STATUS = 13


class InjectedFault(OSError):
    """A deliberately injected failure (an ``OSError`` by design)."""


class FaultPlan:
    """A parsed ``$CHOP_FAULTS`` spec."""

    def __init__(self, spec: str = "") -> None:
        self.spec = spec
        self.sites: Dict[str, float] = {}
        for entry in filter(None, (p.strip() for p in spec.split(","))):
            site, sep, raw = entry.partition("=")
            if not sep or site not in _KNOWN_SITES:
                raise ValueError(
                    f"bad fault spec entry {entry!r}; known sites: "
                    f"{sorted(_KNOWN_SITES)}"
                )
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"fault site {site!r} needs a numeric value, "
                    f"got {raw!r}"
                ) from None
            if value < 0:
                raise ValueError(
                    f"fault site {site!r} needs a non-negative value"
                )
            self.sites[site] = value

    def value(self, site: str) -> Optional[float]:
        return self.sites.get(site)


# Per-process counters for the first-K sites.  They survive spec
# re-parses on purpose: "the first K stores of this process" must not
# reset just because the env was re-read.
_counter_lock = threading.Lock()
_counters: Dict[str, int] = {}


def reset_counters() -> None:
    """Forget the per-process first-K tallies (test isolation)."""
    with _counter_lock:
        _counters.clear()


def active_plan() -> Optional[FaultPlan]:
    """The current plan, or ``None`` when no faults are configured.

    Parsed from the environment on every call — the spec is tiny and
    re-reading keeps ``monkeypatch.setenv`` test flows working without
    any cache-invalidation protocol.
    """
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    return FaultPlan(spec)


def maybe_inject(site: str, index: Optional[int] = None) -> None:
    """Fire the configured fault for ``site``, if any.

    Raises :class:`InjectedFault` or exits the process, according to
    the site's semantics; returns silently otherwise.
    """
    plan = active_plan()
    if plan is None:
        return
    value = plan.value(site)
    if value is None:
        return
    if site in _INDEXED_SITES:
        if index is None or index != int(value):
            return
        if site == "shard_exit":
            os._exit(EXIT_STATUS)
        raise InjectedFault(
            f"injected fault at {site} index {index}"
        )
    # first-K counted site
    with _counter_lock:
        fired = _counters.get(site, 0)
        if fired >= int(value):
            return
        _counters[site] = fired + 1
    raise InjectedFault(
        f"injected fault at {site} (firing {fired + 1} of {int(value)})"
    )
