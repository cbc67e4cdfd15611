"""The on-disk prediction cache (see :mod:`repro.cache.disk`)."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.disk import (
    CACHE_VERSION,
    DiskPredictionCache,
    library_clock_digest,
)


def warm_from_disk(
    session, cache: DiskPredictionCache
) -> Tuple[Optional[str], int]:
    """Seed ``session`` from ``cache``; returns ``(store key, seeded)``.

    The one warm-up of every caller (``chop check``, the service, the
    explore sweep), keyed one way: by the fingerprint of the session as
    re-serialized, so a document that omits defaulted sections shares
    its entry with the same project from any other caller.  On a hit
    the key is ``None`` and ``seeded`` counts the partition prediction
    lists installed; on a miss the caller stores the session's
    predictions under the returned key once its check computed them.
    """
    from repro.io.project import project_fingerprint, session_to_dict

    key = cache.key_for(
        project_fingerprint(session_to_dict(session)),
        session.library,
        session.clocks,
    )
    cached = cache.load(key)
    if cached is None:
        return key, 0
    return None, session.seed_predictions(cached)


__all__ = [
    "CACHE_VERSION",
    "DiskPredictionCache",
    "library_clock_digest",
    "warm_from_disk",
]
