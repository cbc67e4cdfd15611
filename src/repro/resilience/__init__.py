"""repro.resilience — fault injection and graceful degradation.

The serving stack's answer to *what happens when things break*:

* :mod:`~repro.resilience.faults` — the ``$CHOP_FAULTS`` deterministic
  fault-injection harness wired into the engine workers and the disk
  cache;
* :mod:`~repro.resilience.degrade` — :class:`SoftDeadline`, the
  soft-stop hook behind ``check(soft_deadline_s=…)`` partial verdicts.

The full fault → behavior → status → metric contract lives in
``docs/resilience.md``.
"""

from repro.resilience.degrade import SoftDeadline
from repro.resilience.faults import (
    FAULTS_ENV,
    FaultPlan,
    InjectedFault,
    active_plan,
    maybe_inject,
    reset_counters,
)

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "InjectedFault",
    "SoftDeadline",
    "active_plan",
    "maybe_inject",
    "reset_counters",
]
