"""The iterative heuristic (paper Figure 5, heuristic I).

"The second heuristic tries to find the minimum system delay for each
feasible performance value (each feasible initiation interval ...).  For
each feasible initiation interval, the heuristic starts with the fastest
predicted implementation for each partition and iteratively considers
more serial implementations of partitions residing on chips whose area
constraint is violated.  Selection of more serial implementations is done
in such a way that the incremental system delay caused by serialization
is minimized" — generally serializing off-critical-path partitions.

Implementation notes mapping to the pseudocode:

* predictions are sorted "first for the initiation interval and then for
  the circuit delay" — :meth:`DesignPrediction.sort_key`;
* ``W_i`` advances to the first implementation *compatible* with the
  trial interval ``l``: a nonpipelined design with interval at most ``l``,
  or a pipelined design running exactly at ``l`` (any other pipelined
  rate is a data-rate mismatch);
* the candidate set ``Q`` is read off the feasibility report's violated
  chip-area checks;
* the expected system delay of each tentative serialization is found by
  a full integration (whose heart is the urgency scheduling the paper
  names).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.core.feasibility import FeasibilityCriteria, evaluate_system
from repro.core.integration import IntegrationPlan, integrate
from repro.core.partitioning import Partitioning
from repro.core.tasks import build_task_graph
from repro.errors import InfeasibleError, PredictionError, SearchCancelled
from repro.library.library import ComponentLibrary
from repro.obs.tracing import span as trace_span
from repro.resilience.degrade import SoftDeadline
from repro.search.results import FeasibleDesign, SearchResult
from repro.search.space import DesignSpace

#: Bound on serialization rounds per interval; each round either makes
#: progress through some partition's finite prediction list or stops, so
#: this is defensive only.
_MAX_ROUNDS_FACTOR = 4


def iterative_search(
    partitioning: Partitioning,
    predictions: Mapping[str, Sequence[DesignPrediction]],
    clocks: ClockScheme,
    library: ComponentLibrary,
    criteria: FeasibilityCriteria,
    keep_all: bool = False,
    cancel: Optional[Callable[[], bool]] = None,
    soft_deadline_s: Optional[float] = None,
    plan: Optional[IntegrationPlan] = None,
) -> SearchResult:
    """Run the Figure 5 algorithm over every feasible initiation interval.

    ``cancel`` is a cooperative cancellation hook polled between
    serialization rounds; when it returns ``True`` the search raises
    :class:`repro.errors.SearchCancelled`.

    ``soft_deadline_s`` degrades instead of cancelling: once the budget
    elapses the search stops after the current round and returns the
    intervals explored so far with ``degraded=True``.  At least one
    integration trial always runs, so a degraded verdict is never empty
    of evidence.

    ``plan`` accepts an :class:`IntegrationPlan` of ``partitioning``
    (the one :meth:`ChopSession.check` takes from
    :class:`repro.eval.EvaluationContext`, kept from an earlier check
    of the state or fresh); when omitted a plan is built from scratch.
    """
    names = sorted(partitioning.partitions)
    missing = [n for n in names if not predictions.get(n)]
    if missing:
        raise PredictionError(f"no predictions for partitions: {missing}")
    sorted_preds: Dict[str, List[DesignPrediction]] = {
        name: sorted(predictions[name], key=DesignPrediction.sort_key)
        for name in names
    }

    if plan is None:
        plan = IntegrationPlan(
            partitioning, build_task_graph(partitioning), clocks, library
        )
    space = DesignSpace() if keep_all else None
    feasible: List[FeasibleDesign] = []
    trials = 0
    degraded = False
    soft_stop = (
        SoftDeadline(soft_deadline_s)
        if soft_deadline_s is not None else None
    )
    started = time.perf_counter()

    intervals = _feasible_intervals(sorted_preds, criteria, clocks)
    with trace_span(
        "search.iterative", partitions=len(names),
        intervals=len(intervals),
    ) as sp:
        try:
            for l in intervals:
                if degraded:
                    break
                indices = _initial_indices(sorted_preds, names, l)
                if indices is None:
                    continue
                max_rounds = _MAX_ROUNDS_FACTOR * sum(
                    len(sorted_preds[name]) for name in names
                )
                for _round in range(max_rounds):
                    if cancel is not None and cancel():
                        raise SearchCancelled(
                            f"iterative search cancelled after {trials} "
                            f"trials"
                        )
                    if (
                        soft_stop is not None and trials > 0
                        and soft_stop()
                    ):
                        degraded = True
                        break
                    selection = {
                        name: sorted_preds[name][indices[name]]
                        for name in names
                    }
                    trials += 1
                    system, report = _try_integration(
                        partitioning, selection, l, clocks, library,
                        plan, criteria, space,
                    )
                    if (
                        system is not None
                        and report is not None
                        and report.feasible
                    ):
                        feasible.append(
                            FeasibleDesign(
                                selection=selection, system=system,
                                report=report,
                            )
                        )
                        break
                    violated = (
                        report.violated_chips()
                        if report is not None else []
                    )
                    candidates = _serialization_candidates(
                        partitioning, violated, names
                    )
                    if not candidates:
                        break  # not an area problem; cannot serialize out
                    choice = _pick_serialization(
                        partitioning, sorted_preds, indices, candidates,
                        l, clocks, library, plan, names,
                    )
                    trials += choice.tentative_trials
                    if choice.partition is None:
                        break  # every candidate's list is exhausted
                    indices[choice.partition] = choice.next_index
        finally:
            sp.add("combinations", trials)
            sp.add("feasible", len(feasible))
            if degraded:
                sp.put("degraded", True)

    return SearchResult(
        heuristic="iterative",
        trials=trials,
        feasible=feasible,
        cpu_seconds=time.perf_counter() - started,
        space=space,
        degraded=degraded,
    )


# ----------------------------------------------------------------------
# interval and index management
# ----------------------------------------------------------------------
def _feasible_intervals(
    sorted_preds: Mapping[str, List[DesignPrediction]],
    criteria: FeasibilityCriteria,
    clocks: ClockScheme,
) -> List[int]:
    """Candidate initiation intervals, fastest first.

    Every achievable system interval is the interval of some selected
    implementation (the system rate is set by the slowest partition), so
    the distinct prediction intervals within the performance bound form
    the candidate set.
    """
    limit = int(criteria.performance_ns // clocks.main_cycle_ns)
    intervals = {
        pred.ii_main
        for preds in sorted_preds.values()
        for pred in preds
        if pred.ii_main <= limit
    }
    return sorted(intervals)


def _compatible(pred: DesignPrediction, l: int) -> bool:
    """Whether an implementation can run inside a system of interval l."""
    if pred.pipelined:
        return pred.ii_main == l
    return pred.ii_main <= l


def _first_compatible(
    preds: List[DesignPrediction], start: int, l: int
) -> Optional[int]:
    for index in range(start, len(preds)):
        if _compatible(preds[index], l):
            return index
    return None


def _initial_indices(
    sorted_preds: Mapping[str, List[DesignPrediction]],
    names: List[str],
    l: int,
) -> Optional[Dict[str, int]]:
    indices: Dict[str, int] = {}
    for name in names:
        index = _first_compatible(sorted_preds[name], 0, l)
        if index is None:
            return None
        indices[name] = index
    return indices


# ----------------------------------------------------------------------
# integration and serialization steps
# ----------------------------------------------------------------------
def _try_integration(
    partitioning: Partitioning,
    selection: Mapping[str, DesignPrediction],
    l: int,
    clocks: ClockScheme,
    library: ComponentLibrary,
    plan: IntegrationPlan,
    criteria: FeasibilityCriteria,
    space: Optional[DesignSpace],
):
    try:
        system = integrate(
            partitioning, selection, l, clocks, library, plan=plan,
        )
    except InfeasibleError:
        if space is not None:
            space.record_selection(selection, l)
        return None, None
    report = evaluate_system(system, criteria)
    if space is not None:
        space.record_system(system, report.feasible)
    return system, report


def _serialization_candidates(
    partitioning: Partitioning,
    violated_chips: List[str],
    names: List[str],
) -> List[str]:
    """Partitions on chips whose area constraint is violated (set Q)."""
    candidates: List[str] = []
    for chip in violated_chips:
        candidates.extend(partitioning.partitions_on_chip(chip))
    return sorted(set(candidates) & set(names))


class _SerializationChoice:
    """Result of probing every candidate's next-more-serial design."""

    def __init__(self) -> None:
        self.partition: Optional[str] = None
        self.next_index: int = -1
        self.best_delay: Optional[Tuple[int, int]] = None
        self.tentative_trials: int = 0


def _pick_serialization(
    partitioning: Partitioning,
    sorted_preds: Mapping[str, List[DesignPrediction]],
    indices: Mapping[str, int],
    candidates: List[str],
    l: int,
    clocks: ClockScheme,
    library: ComponentLibrary,
    plan: IntegrationPlan,
    names: List[str],
) -> _SerializationChoice:
    """Tentatively serialize each candidate; keep the min-delay choice.

    Mirrors Figure 5's inner loop: advance W_i, "find the expected system
    delay using the urgency scheduling", restore, and finally commit the
    partition with the minimum expected delay.  A tentative integration
    that fails hard still counts as explored but cannot be chosen.
    """
    choice = _SerializationChoice()
    for candidate in candidates:
        next_index = _first_compatible(
            sorted_preds[candidate], indices[candidate] + 1, l
        )
        if next_index is None:
            continue
        tentative = {
            name: sorted_preds[name][
                next_index if name == candidate else indices[name]
            ]
            for name in names
        }
        choice.tentative_trials += 1
        try:
            system = integrate(
                partitioning, tentative, l, clocks, library, plan=plan,
            )
        except InfeasibleError:
            continue
        # Minimise expected system delay; tie-break on total area then
        # name for determinism.
        delay_key = (
            system.delay_main,
            int(
                sum(u.total_area.ml for u in system.chip_usage.values())
            ),
        )
        if choice.best_delay is None or delay_key < choice.best_delay:
            choice.best_delay = delay_key
            choice.partition = candidate
            choice.next_index = next_index
    return choice
