"""Two-level pruning of predictions (section 2.1 of the paper).

"The partitioning software can be instructed to discard any infeasible or
inferior predicted designs immediately upon detection.  This keeps the
number of eligible predicted designs down, resulting in significantly
faster execution speed and smaller run-time memory requirement."

Level 1 runs before the combination search: per-partition predictions
that can never satisfy the criteria (:func:`level1_prune`) or that are
Pareto-dominated by a sibling (:func:`dominance_filter`) are dropped.
Level 2 happens inside the search loops: combinations are abandoned on
the first violated constraint.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.core.feasibility import (
    FeasibilityCriteria,
    prediction_possibly_feasible,
)
from repro.search.pareto import pareto_front


def dominance_filter(
    predictions: Sequence[DesignPrediction],
) -> List[DesignPrediction]:
    """Keep only Pareto-optimal predictions on (II, latency, area).

    A prediction dominated in all three dimensions can never appear in a
    best feasible combination: replacing it with its dominator preserves
    every constraint and improves the goal — the paper's "inferior"
    designs.

    This is the shared sort+sweep filter of
    :func:`repro.search.pareto.pareto_front` applied to
    :meth:`DesignPrediction.sort_key` — the same dominance semantics
    (strict, minimizing, ties kept) the design-space explorer uses for
    its (cost, performance, delay, chips) front.  Input order is
    preserved.
    """
    return pareto_front(predictions, key=DesignPrediction.sort_key)


def level1_prune(
    predictions: Sequence[DesignPrediction],
    criteria: FeasibilityCriteria,
    clocks: ClockScheme,
    max_usable_area_mil2: float,
    drop_inferior: bool = True,
) -> List[DesignPrediction]:
    """First-level pruning of one partition's prediction list.

    Drops predictions that cannot satisfy the criteria even with zero
    integration overhead, then (optionally) the Pareto-dominated ones.
    The result keeps the paper's ordering (II, then delay).
    """
    feasible = [
        p
        for p in predictions
        if prediction_possibly_feasible(
            p, criteria, clocks, max_usable_area_mil2
        )
    ]
    if drop_inferior:
        feasible = dominance_filter(feasible)
    return sorted(feasible, key=DesignPrediction.sort_key)
