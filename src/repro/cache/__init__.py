"""The on-disk prediction cache (see :mod:`repro.cache.disk`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cache.disk import (
    CACHE_VERSION,
    DiskPredictionCache,
    library_clock_digest,
)


@dataclass(frozen=True)
class CachedCheck:
    """One check run under the disk prediction cache."""

    result: Any  # the check's SearchResult
    #: Partition prediction lists seeded from disk (0 on a miss).
    seeded: int
    #: ``None`` when there was nothing to store (a hit, or no cache);
    #: otherwise whether the miss's predictions reached the disk.
    stored: Optional[bool]


def check_with_cache(
    session, cache: Optional[DiskPredictionCache], **options: Any
) -> CachedCheck:
    """``session.check(**options)``, seeded from ``cache`` and stored back.

    The one seed-then-store policy of every caller (``chop check``, the
    service, the explore sweep), keyed one way: by the fingerprint of
    the session as re-serialized, so a document that omits defaulted
    sections shares its entry with the same project from any other
    caller.  On a hit the partition prediction lists are seeded before
    the check; on a miss the session's predictions are stored after it,
    best-effort — a failed write (counted in ``store_failures``) never
    fails the check that just succeeded.  Without a cache this is just
    the check.  Errors of the check propagate.
    """
    if cache is None:
        return CachedCheck(session.check(**options), 0, None)
    from repro.io.project import project_fingerprint, session_to_dict

    key = cache.key_for(
        project_fingerprint(session_to_dict(session)),
        session.library,
        session.clocks,
    )
    cached = cache.load(key)
    seeded = 0 if cached is None else session.seed_predictions(cached)
    result = session.check(**options)
    stored = None
    if cached is None:
        stored = cache.store_safely(key, session.export_predictions())
    return CachedCheck(result, seeded, stored)


__all__ = [
    "CACHE_VERSION",
    "CachedCheck",
    "DiskPredictionCache",
    "check_with_cache",
    "library_clock_digest",
]
