"""Probabilistic feasibility analysis (section 2.6 of the paper).

"All prediction results ... are stored in a statistical environment, and
the feasibility analysis is done with ... probabilistic methods.  The
feasibility analysis is performed for each chip area constraint by
considering the area taken by PUs, data transfer modules residing on each
chip, and multiplexing to share the data pins ... The clock cycle time is
adjusted and feasibility of the performance and the system delay are
checked."

The experiments' criteria: "a probability of 100% of satisfying the
performance (initiation interval) and chip area constraints, and a
probability of 80% of satisfying the system delay ... constraint"
(section 3) — the defaults of :class:`FeasibilityCriteria`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.core.integration import SystemPrediction
from repro.errors import PredictionError
from repro.stats import ConstraintCheck


@dataclass(frozen=True, slots=True)
class FeasibilityCriteria:
    """The designer's hard constraints and required confidences."""

    performance_ns: float
    delay_ns: float
    performance_confidence: float = 1.0
    area_confidence: float = 1.0
    delay_confidence: float = 0.8
    #: Optional power constraints — the paper's section-5 extension.
    #: ``None`` disables the corresponding check.
    system_power_mw: Optional[float] = None
    chip_power_mw: Optional[float] = None
    power_confidence: float = 0.9

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(limit) and limit > 0
            for limit in (self.performance_ns, self.delay_ns)
        ):
            raise PredictionError(
                "performance and delay constraints must be positive and "
                f"finite, got {self.performance_ns} and {self.delay_ns}"
            )
        for name in (
            "performance_confidence", "area_confidence",
            "delay_confidence", "power_confidence",
        ):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise PredictionError(
                    f"{name} must be in (0, 1], got {value}"
                )
        for name in ("system_power_mw", "chip_power_mw"):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and value > 0
            ):
                raise PredictionError(
                    f"{name} must be positive and finite when set, got "
                    f"{value}"
                )


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    """Outcome of checking one system prediction against the criteria."""

    checks: List[ConstraintCheck]
    feasible: bool

    def violations(self) -> List[ConstraintCheck]:
        return [c for c in self.checks if not c.passed]

    def violated_chips(self) -> List[str]:
        """Chip names whose area constraint failed.

        This is the list the iterative heuristic's set Q is built from:
        "partitions residing on chips whose area constraint is violated"
        (Figure 5).
        """
        return [
            c.name.removeprefix("area:")
            for c in self.checks
            if c.name.startswith("area:") and not c.passed
        ]


def evaluate_system(
    system: SystemPrediction, criteria: FeasibilityCriteria
) -> FeasibilityReport:
    """Check a system prediction against the feasibility criteria."""
    checks: List[ConstraintCheck] = []
    for chip_name, usage in sorted(system.chip_usage.items()):
        checks.append(
            ConstraintCheck.upper_bound(
                name=f"area:{chip_name}",
                value=usage.total_area,
                limit=usage.usable_area_mil2,
                confidence=criteria.area_confidence,
            )
        )
    checks.append(
        ConstraintCheck.upper_bound(
            name="performance",
            value=system.performance_ns,
            limit=criteria.performance_ns,
            confidence=criteria.performance_confidence,
        )
    )
    checks.append(
        ConstraintCheck.upper_bound(
            name="delay",
            value=system.delay_ns,
            limit=criteria.delay_ns,
            confidence=criteria.delay_confidence,
        )
    )
    if criteria.chip_power_mw is not None:
        for chip_name, usage in sorted(system.chip_usage.items()):
            checks.append(
                ConstraintCheck.upper_bound(
                    name=f"power:{chip_name}",
                    value=usage.power_mw,
                    limit=criteria.chip_power_mw,
                    confidence=criteria.power_confidence,
                )
            )
    if criteria.system_power_mw is not None:
        checks.append(
            ConstraintCheck.upper_bound(
                name="power",
                value=system.power_mw,
                limit=criteria.system_power_mw,
                confidence=criteria.power_confidence,
            )
        )
    return FeasibilityReport(
        checks=checks, feasible=all(c.passed for c in checks)
    )


def prediction_possibly_feasible(
    prediction: DesignPrediction,
    criteria: FeasibilityCriteria,
    clocks: ClockScheme,
    max_usable_area_mil2: float,
) -> bool:
    """First-level pruning test for one per-partition prediction.

    "The first level pruning happens before integrated partitioning
    predictions are performed.  The predictions produced by BAD for each
    partition are examined and predictions which are infeasible ... are
    discarded" (section 2.1).  A prediction is discarded only when it can
    *never* satisfy the criteria, using optimistic integration overhead
    (none): its area alone overflows the largest chip at the required
    confidence, its interval alone overruns the performance constraint,
    or its latency alone overruns the delay constraint.
    """
    # Area at 100% confidence demands the upper bound fits; weaker
    # confidences compare the optimistic lower bound instead.
    if criteria.area_confidence >= 1.0 - 1e-12:
        if prediction.area_total.ub > max_usable_area_mil2:
            return False
    elif prediction.area_total.lb > max_usable_area_mil2:
        return False
    optimistic_cycle = clocks.main_cycle_ns
    if prediction.ii_main * optimistic_cycle > criteria.performance_ns:
        return False
    if prediction.latency_main * optimistic_cycle > criteria.delay_ns:
        return False
    for power_limit in (criteria.chip_power_mw, criteria.system_power_mw):
        if power_limit is not None and prediction.power_mw.lb > power_limit:
            return False
    return True
