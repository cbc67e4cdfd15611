"""The explicit-enumeration heuristic (paper section 2.4, heuristic E).

"The heuristic searches all possible combinations of implementing the
global design (partitioning), given the predicted implementations of
individual partitions ... The heuristic assumes that the performance of
each combination is upper bounded and set by the slowest partition
implementation in the combination."

Even this enumeration is a heuristic — "there are multiple ways of
integrating the partitions considered in each combination, and the
heuristic does not examine all ways": each combination is integrated once
at its slowest implementation's rate.

With pruning on, a combination is abandoned on the first violated chip
area bound before the (more expensive) system integration runs — the
paper's level-2 pruning — or, unless an explain report or ``keep_all``
reads how it fails, when its delay floor (the least adjusted clock any
integration of it can have, times its critical path) already fails the
delay check.

The section's rejection of combinations whose pipelined implementations
run at different data rates is a subtree skip: once a partition's pick
conflicts with an earlier pipelined pick, every combination that shares
those picks is infeasible, so the walk counts them as tried and moves
past them without integrating any.

The evaluation loop itself lives in :mod:`repro.engine.workers` so the
serial path here and the engine's worker processes execute *identical*
code: handing an :class:`~repro.engine.EvaluationEngine` in through
``engine=`` shards the same walk across a process pool and merges the
shards back into a byte-identical result.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.core.feasibility import FeasibilityCriteria
from repro.core.integration import IntegrationPlan
from repro.core.partitioning import Partitioning
from repro.engine.workers import EvaluationProblem, evaluate_range
from repro.errors import CombinationExplosionError, PredictionError
from repro.library.library import ComponentLibrary
from repro.obs.tracing import span as trace_span
from repro.resilience.degrade import SoftDeadline
from repro.search.results import SearchResult
from repro.search.space import DesignSpace

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.engine.workers import EvaluationEngine
    from repro.obs.explain import ExplainCollector

#: Safety valve: enumeration refuses absurdly large products so a typo in
#: a prune setting cannot hang a session.
MAX_COMBINATIONS = 2_000_000


def enumeration_search(
    partitioning: Partitioning,
    predictions: Mapping[str, Sequence[DesignPrediction]],
    clocks: ClockScheme,
    library: ComponentLibrary,
    criteria: FeasibilityCriteria,
    prune: bool = True,
    keep_all: bool = False,
    cancel: Optional[Callable[[], bool]] = None,
    engine: Optional["EvaluationEngine"] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    collector: Optional["ExplainCollector"] = None,
    soft_deadline_s: Optional[float] = None,
    plan: Optional[IntegrationPlan] = None,
) -> SearchResult:
    """Try every combination of per-partition implementations.

    ``predictions`` maps each partition name to its (already level-1
    pruned, unless the caller kept everything) prediction list.  With
    ``keep_all`` every visited combination lands in the returned
    :class:`DesignSpace`.  ``cancel`` is a cooperative cancellation hook
    polled between candidate combinations; when it returns ``True`` the
    search raises :class:`repro.errors.SearchCancelled`.

    ``engine`` runs the walk on a process pool; the result is identical
    to the serial path (same visit order, same designs, same trial
    count).  ``keep_all`` stays on the serial path: recording every
    visited point is a paper-figure mode whose payload would dwarf the
    shard results.  ``collector`` (an
    :class:`repro.obs.ExplainCollector`) likewise forces the serial
    path — it records the per-combination failure breakdown, which is
    per-combination payload by definition.  ``progress`` (engine runs
    only) receives ``(shards_done, shards_total)`` as shards complete.

    The walk credits its counters to the ``search.enumeration`` span,
    or, with a collector, to ``collector.counters``, which are then
    copied onto the span: one count serves the trace and the explain
    report.  Tracing never changes the walk; only ``keep_all`` and
    ``collector`` make it visit the combinations it would skip and
    integrate those it would screen (see
    :func:`repro.engine.workers.evaluate_range`).

    ``soft_deadline_s`` is the graceful-degradation hook (paper framing:
    *interactive* means "fast, or degraded, but never nothing"): once the
    budget elapses the walk stops after the current combination and the
    partial result comes back with ``degraded=True`` instead of raising.
    At least one combination is always evaluated.  A soft deadline
    forces the serial path — shard boundaries would make the visited
    prefix nondeterministic.

    ``plan`` accepts an :class:`~repro.core.integration.IntegrationPlan`
    of ``partitioning`` (the one :meth:`ChopSession.check` takes from
    :class:`repro.eval.EvaluationContext`, kept from an earlier check
    of the state or fresh); when omitted a plan is built from scratch.
    """
    names = sorted(partitioning.partitions)
    missing = [n for n in names if not predictions.get(n)]
    if missing:
        raise PredictionError(
            f"no predictions for partitions: {missing}"
        )
    problem = EvaluationProblem.build(
        partitioning, predictions, clocks, library, criteria,
        prune=prune, plan=plan,
    )
    combination_count = problem.combination_count()
    if combination_count > MAX_COMBINATIONS:
        raise CombinationExplosionError(
            combinations=combination_count,
            limit=MAX_COMBINATIONS,
            list_sizes=problem.list_sizes(),
        )

    soft_stop: Optional[Callable[[], bool]] = None
    if soft_deadline_s is not None:
        soft_stop = SoftDeadline(soft_deadline_s)

    started = time.perf_counter()
    with trace_span(
        "search.enumeration", prune=prune, space=combination_count,
        partitions=len(names),
    ) as sp:
        if (
            engine is not None and not keep_all and collector is None
            and soft_stop is None
        ):
            run = engine.run(problem, cancel=cancel, progress=progress)
            sp.add("combinations", run.trials)
            sp.add("feasible", len(run.feasible))
            return SearchResult(
                heuristic="enumeration",
                trials=run.trials,
                feasible=run.feasible,
                cpu_seconds=time.perf_counter() - started,
                space=None,
            )

        space = DesignSpace() if keep_all else None
        counters = sp.counters if collector is None else collector.counters
        try:
            feasible, trials = evaluate_range(
                problem, 0, combination_count, cancel=cancel,
                space=space, collector=collector, counters=counters,
                soft_stop=soft_stop,
            )
        finally:
            if collector is not None:
                for name, count in counters.items():
                    sp.add(name, count)
        degraded = trials < combination_count
        if degraded:
            sp.put("degraded", True)
        return SearchResult(
            heuristic="enumeration",
            trials=trials,
            feasible=feasible,
            cpu_seconds=time.perf_counter() - started,
            space=space,
            degraded=degraded,
        )
