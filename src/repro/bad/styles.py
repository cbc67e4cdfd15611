"""Architecture styles and clocking schemes.

The paper's inputs include "tentative data path and data transfer clock
cycle times, the architecture style" where "the architecture style can
allow either single-cycle or multi-cycle operations, and be pipelined or
nonpipelined", and both clocks are "synchronous with frequencies being
multiples of the major clock frequency" (section 2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PredictionError


class OperationTiming(enum.Enum):
    """How operations relate to the datapath clock.

    ``SINGLE_CYCLE``: every operation completes within one datapath cycle,
    so a module is only usable when its delay fits the cycle (experiment
    1's "widely used style among current datapath synthesis approaches").

    ``MULTI_CYCLE``: an operation may span several datapath cycles
    (``ceil(delay / cycle)``), letting a fast clock be used efficiently
    (experiment 2).
    """

    SINGLE_CYCLE = "single-cycle"
    MULTI_CYCLE = "multi-cycle"


@dataclass(frozen=True, slots=True)
class ClockScheme:
    """The three synchronous clocks of the paper's model.

    The main clock is the unit in which the tables report initiation
    intervals and delays.  The datapath clock is ``dp_multiplier`` main
    cycles long; the transfer clock ``transfer_multiplier`` main cycles.
    """

    main_cycle_ns: float
    dp_multiplier: int = 1
    transfer_multiplier: int = 1

    def __post_init__(self) -> None:
        if self.main_cycle_ns <= 0:
            raise PredictionError(
                f"main clock cycle must be positive, got {self.main_cycle_ns}"
            )
        if self.dp_multiplier < 1 or self.transfer_multiplier < 1:
            raise PredictionError(
                "clock multipliers must be positive integers (the clocks "
                "are synchronous multiples of the main clock)"
            )

    @property
    def dp_cycle_ns(self) -> float:
        """Datapath clock cycle in nanoseconds."""
        return self.main_cycle_ns * self.dp_multiplier

    def dp_cycles_to_main(self, dp_cycles: int) -> int:
        """Convert a datapath-cycle count to main-clock cycles."""
        return dp_cycles * self.dp_multiplier

    def transfer_cycles_to_main(self, transfer_cycles: int) -> int:
        """Convert a transfer-cycle count to main-clock cycles."""
        return transfer_cycles * self.transfer_multiplier


@dataclass(frozen=True, slots=True)
class ArchitectureStyle:
    """Which design styles the predictor may explore."""

    timing: OperationTiming = OperationTiming.SINGLE_CYCLE
    allow_pipelined: bool = True
    allow_nonpipelined: bool = True

    def __post_init__(self) -> None:
        if not (self.allow_pipelined or self.allow_nonpipelined):
            raise PredictionError(
                "architecture style must allow at least one design style"
            )
