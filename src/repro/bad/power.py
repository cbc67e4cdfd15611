"""Power prediction — the paper's first extension target.

"The partitioning methodology currently works with area, delay,
performance and pin count characteristics and needs to be extended to
include power consumption constraints" (paper section 5).  This module
supplies that extension with a 3-micron CMOS rate model:

* each functional unit burns energy per activation; its average power is
  the activation energy times its utilization (busy cycles per
  initiation interval over the cycle time);
* storage (registers, muxes) and the controller burn power proportional
  to their cell counts and the clock rate;
* a static leakage floor scales with active area.

Absolute milliwatts are synthetic (no power data is published for the
Table 1 library); the *orderings* — parallel implementations burn more
power at higher utilization, serial ones less — are what the extended
feasibility analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import PredictionError
from repro.stats import Triplet


@dataclass(frozen=True, slots=True)
class PowerParameters:
    """Technology constants for the power model (3-micron defaults)."""

    #: Switching energy per mil^2 of active component area per
    #: activation, in pJ/mil^2 (3-micron gates at 5 V).
    switching_pj_per_mil2: float = 2.4
    #: Register/mux cell switching energy per bit per cycle, pJ.
    storage_pj_per_bit: float = 0.35
    #: Controller switching energy per product term per cycle, pJ.
    pla_pj_per_term: float = 0.8
    #: Static (leakage + bias) power per mil^2 of active area, in uW.
    static_uw_per_mil2: float = 0.015
    #: Relative uncertainty bounds on the total.
    rel_lb: float = 0.80
    rel_ub: float = 1.30


@dataclass(frozen=True, slots=True)
class PowerEstimate:
    """Predicted average power of one design, in milliwatts."""

    dynamic_mw: float
    static_mw: float
    total_mw: Triplet


def power_estimate(
    functional_area_by_class: Mapping[str, float],
    busy_cycles_by_class: Mapping[str, int],
    ii_dp: int,
    dp_cycle_ns: float,
    register_bits: int,
    mux_count: int,
    controller_terms: int,
    active_area_mil2: float,
    params: PowerParameters = PowerParameters(),
) -> PowerEstimate:
    """Average power of one predicted implementation.

    ``functional_area_by_class`` is the *per-unit* area of each resource
    class (one unit's area); ``busy_cycles_by_class`` the unit-cycles
    that class executes per iteration.  With one iteration every
    ``ii_dp`` datapath cycles of ``dp_cycle_ns``, the class's switching
    power is ``energy_per_activation * busy / (ii_dp * cycle)``.
    """
    if ii_dp <= 0 or dp_cycle_ns <= 0:
        raise PredictionError(
            "power model needs a positive interval and cycle time"
        )
    if register_bits < 0 or mux_count < 0 or controller_terms < 0:
        raise PredictionError("power model inputs must be non-negative")
    iteration_ns = ii_dp * dp_cycle_ns

    dynamic_pj_per_iteration = 0.0
    for cls, unit_area in functional_area_by_class.items():
        busy = busy_cycles_by_class.get(cls, 0)
        if unit_area < 0 or busy < 0:
            raise PredictionError(
                f"class {cls!r}: negative area or busy cycles"
            )
        # One activation per busy cycle of one unit.
        dynamic_pj_per_iteration += (
            params.switching_pj_per_mil2 * unit_area * busy
        )
    # Storage and control switch every datapath cycle of the iteration.
    dynamic_pj_per_iteration += (
        params.storage_pj_per_bit * (register_bits + mux_count) * ii_dp
    )
    dynamic_pj_per_iteration += (
        params.pla_pj_per_term * controller_terms * ii_dp
    )

    # pJ per ns = mW.
    dynamic_mw = dynamic_pj_per_iteration / iteration_ns
    static_mw = params.static_uw_per_mil2 * active_area_mil2 / 1000.0
    total = Triplet.spread(
        dynamic_mw + static_mw, params.rel_lb, params.rel_ub
    )
    return PowerEstimate(
        dynamic_mw=dynamic_mw, static_mw=static_mw, total_mw=total
    )
