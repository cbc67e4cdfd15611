"""Data-transfer bandwidth, timing, buffers and transfer modules.

Implements section 2.5 of the paper:

* "the maximum possible bandwidth is used for each data transfer"; the
  bandwidth of a transfer task is "the minimum bandwidth of all chips
  involved", after memory I/O pin effects are deducted;
* the transfer time is the data volume over that bandwidth, and "cannot
  be longer than the initiation interval of the system in order not to
  cause data clashes" (pin counts are hard constraints);
* the buffer requirement is ``B = D * (ceil(W / l) + X / l)``;
* one data-transfer module (DTM) sits on every chip involved in a
  transfer (output mode at the source, input mode elsewhere), each a
  buffer plus a PLA controller sized from the wait and transfer times
  "by the same methods used in BAD".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.bad.controller import PlaEstimate, PlaParameters, pla_estimate
from repro.bad.styles import ClockScheme
from repro.chips.chip import PinBudget
from repro.core.tasks import TransferTask
from repro.errors import InfeasibleError, PredictionError
from repro.library.component import Cell
from repro.stats import Triplet
from repro.units import ceil_div


@dataclass(frozen=True, slots=True)
class TransferEstimate:
    """Bandwidth and duration of one data-transfer task."""

    task: TransferTask
    #: Data pins granted on each involved chip (the shared-bus width).
    pins: int
    #: Transfer duration in transfer-clock cycles.
    transfer_cycles: int
    #: The same duration in main-clock cycles.
    duration_main: int


def transfer_bandwidth_pins(
    task: TransferTask,
    budgets: Mapping[str, PinBudget],
    memory_pin_loads: Mapping[str, int],
) -> int:
    """Pins available to the transfer: the minimum across involved chips.

    Raises :class:`InfeasibleError` when any involved chip has no data
    pin left after reservations and memory I/O — pin counts are hard
    constraints CHOP cannot change.
    """
    pins = None
    for chip in task.chips:
        budget = budgets.get(chip)
        if budget is None:
            raise PredictionError(f"no pin budget for chip {chip!r}")
        free = budget.data - memory_pin_loads.get(chip, 0)
        pins = free if pins is None else min(pins, free)
    if pins is None:
        raise PredictionError(f"task {task.name!r} involves no chips")
    if pins <= 0:
        raise InfeasibleError(
            f"task {task.name!r}: no data pins available on "
            f"{'/'.join(task.chips)} after reservations and memory I/O"
        )
    return pins


def estimate_transfer(
    task: TransferTask,
    budgets: Mapping[str, PinBudget],
    memory_pin_loads: Mapping[str, int],
    clocks: ClockScheme,
) -> TransferEstimate:
    """Duration of one transfer at maximum available bandwidth."""
    pins = transfer_bandwidth_pins(task, budgets, memory_pin_loads)
    transfer_cycles = ceil_div(task.bits, pins)
    return TransferEstimate(
        task=task,
        pins=pins,
        transfer_cycles=transfer_cycles,
        duration_main=clocks.transfer_cycles_to_main(transfer_cycles),
    )


def buffer_bits(
    data_bits: int, wait_main: int, transfer_main: int, ii_main: int
) -> int:
    """The paper's buffer formula ``B = D * (ceil(W/l) + X/l)``.

    ``D`` is the transfer's data size, ``W`` the wait time, ``X`` the
    transfer time and ``l`` the initiation interval, all in main-clock
    cycles.  The second term is fractional because of the "stair-like
    nature of the storage requirements" during the transfer itself.
    """
    if ii_main <= 0:
        raise PredictionError(
            f"initiation interval must be positive, got {ii_main}"
        )
    if data_bits < 0 or wait_main < 0 or transfer_main < 0:
        raise PredictionError("buffer terms must be non-negative")
    raw = data_bits * (
        ceil_div(wait_main, ii_main) + transfer_main / ii_main
    )
    return int(math.ceil(raw - 1e-9))


@dataclass(frozen=True, slots=True)
class DataTransferModule:
    """One DTM instance on one chip.

    ``mode`` is ``"output"`` on the data's source chip and ``"input"``
    elsewhere.  ``always_active`` reflects the paper's observation that a
    DTM whose wait exceeds the initiation interval never goes idle.
    """

    task_name: str
    chip: str
    mode: str
    buffer_bits: int
    controller: PlaEstimate
    area_mil2: Triplet
    always_active: bool

    @property
    def control_delay_ns(self) -> float:
        return self.controller.delay_ns


def data_transfer_module(
    task: TransferTask,
    chip: str,
    mode: str,
    estimate: TransferEstimate,
    wait_main: int,
    ii_main: int,
    clocks: ClockScheme,
    register: Cell,
    pla_params: PlaParameters = PlaParameters(),
    controllers: Optional[
        Dict[Tuple[int, int, int], PlaEstimate]
    ] = None,
) -> DataTransferModule:
    """Predict one data-transfer module's buffer, controller and area.

    ``controllers`` shares PLA estimates by their (inputs, outputs,
    terms): an estimate found there is reused, a new one is added.  All
    its estimates must come from ``pla_params``.
    """
    if mode not in ("input", "output"):
        raise PredictionError(f"invalid DTM mode {mode!r}")
    bits = buffer_bits(task.bits, wait_main, estimate.duration_main, ii_main)
    # Controller steps count wait + transfer in transfer-clock cycles.
    steps = max(
        1,
        ceil_div(wait_main, clocks.transfer_multiplier)
        + estimate.transfer_cycles,
    )
    inputs = max(1, math.ceil(math.log2(steps + 1))) + 2
    outputs = max(1, ceil_div(estimate.pins, 8)) + 2
    terms = steps + max(1, outputs // 2)
    if controllers is None:
        controller = pla_estimate(inputs, outputs, terms, pla_params)
    else:
        controller = controllers.get((inputs, outputs, terms))
        if controller is None:
            controller = pla_estimate(inputs, outputs, terms, pla_params)
            controllers[inputs, outputs, terms] = controller
    buffer_area = Triplet.spread(
        register.area_for_bits(bits), 0.95, 1.10
    ) if bits else Triplet.zero()
    return DataTransferModule(
        task_name=task.name,
        chip=chip,
        mode=mode,
        buffer_bits=bits,
        controller=controller,
        area_mil2=buffer_area + controller.area_mil2,
        always_active=wait_main > ii_main,
    )
