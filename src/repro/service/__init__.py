"""The CHOP serving layer: a concurrent partitioning server.

The paper frames CHOP as an *interactive* tool — the designer proposes a
partitioning and the system answers feasibility fast enough to stay in
the loop (sections 1 and 6).  This package turns the batch library into a
long-running, stdlib-only HTTP/JSON service so many designer sessions can
share one process:

* :mod:`repro.service.app` — the route table, the JSON endpoints, the
  one background-job path and the serve loop (SIGTERM/SIGINT drain,
  SIGUSR2 flight dump);
* :mod:`repro.service.sessions` — fingerprint-addressed LRU registry of
  loaded :class:`~repro.core.chop.ChopSession` state;
* :mod:`repro.service.cache` — single-flight LRU memoization of check
  verdicts (the hot path: re-checking after small edits);
* :mod:`repro.service.jobs` — bounded worker pool for long enumerations,
  with cooperative timeout/cancellation, admission control (queue and
  per-session caps) and graceful drain;
* :mod:`repro.service.metrics` — the request families of the metrics
  registry and the JSON shape of ``GET /metrics``, read from that
  registry (route labels are route templates, so bounded by the table).

Start it with ``python -m repro.cli serve --port 8080 --workers 4``.
"""

from repro.service.app import ChopService, make_server, serve
from repro.service.cache import LRUCache, check_cache_key
from repro.service.jobs import Job, JobQueue
from repro.service.sessions import SessionEntry, SessionRegistry

__all__ = [
    "ChopService",
    "Job",
    "JobQueue",
    "LRUCache",
    "SessionEntry",
    "SessionRegistry",
    "check_cache_key",
    "make_server",
    "serve",
]
