"""Pluggable prediction-cache backends (see :mod:`repro.cache.backend`).

Call sites select a backend by name through :func:`create_backend`; the
``"auto"`` kind picks the shared multi-writer backend whenever more than
one process will write the directory (the fleet front passes its worker
count) and the classic single-writer disk backend otherwise.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Tuple, Union

from repro.cache.backend import (
    CACHE_VERSION,
    CacheBackend,
    PredictionCacheBase,
    library_clock_digest,
)
from repro.cache.disk import DiskPredictionCache
from repro.cache.shared import SharedPredictionCache, default_writer_id
from repro.resilience.retry import RetryPolicy

#: Backend names accepted by ``--cache-backend`` and the service option.
BACKEND_KINDS = ("auto", "disk", "shared")


def resolve_backend_kind(kind: str, writers: int = 1) -> str:
    """Resolve ``"auto"`` to a concrete backend for ``writers`` processes."""
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown cache backend {kind!r}; expected one of "
            f"{', '.join(BACKEND_KINDS)}"
        )
    if kind == "auto":
        return "shared" if writers > 1 else "disk"
    return kind


def create_backend(
    kind: str,
    directory: Union[str, pathlib.Path],
    version: int = CACHE_VERSION,
    retry_policy: Optional[RetryPolicy] = None,
    writers: int = 1,
    writer_id: Optional[str] = None,
) -> PredictionCacheBase:
    """Build the named prediction-cache backend over ``directory``."""
    resolved = resolve_backend_kind(kind, writers=writers)
    if resolved == "shared":
        return SharedPredictionCache(
            directory,
            version=version,
            retry_policy=retry_policy,
            writer_id=writer_id,
        )
    return DiskPredictionCache(
        directory, version=version, retry_policy=retry_policy
    )


def warm_from_disk(
    session, cache: PredictionCacheBase
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
    "BACKEND_KINDS",
    "CACHE_VERSION",
    "CacheBackend",
    "DiskPredictionCache",
    "PredictionCacheBase",
    "SharedPredictionCache",
    "create_backend",
    "default_writer_id",
    "library_clock_digest",
    "resolve_backend_kind",
    "warm_from_disk",
]
