"""The single-writer disk backend of the prediction cache.

One process owns the directory, writes are atomic temp-file +
``os.replace``, defective entries are quarantined as ``*.corrupt``.  Concurrent writers from *other processes* are tolerated
only in the sense that atomic renames never produce torn entries — for
a fleet of writers sharing one directory use
:class:`repro.cache.SharedPredictionCache`, which adds advisory
locking, collision detection and writer attribution.
"""

from __future__ import annotations

from repro.cache.backend import PredictionCacheBase


class DiskPredictionCache(PredictionCacheBase):
    """A directory of pickled per-project prediction lists."""

    kind = "disk"
