"""Predicted design records.

A :class:`DesignPrediction` is one point BAD returns for a partition:
"completely specified characteristics (area, performance, delay) and
memory bandwidth requirements for each memory block" (section 2.4), plus
the design decisions behind it (style, stages, module set, operator,
register and multiplexer allocation) that the tool outputs as synthesis
guidelines (section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from repro.bad.controller import PlaEstimate
from repro.bad.styles import OperationTiming
from repro.library.library import ModuleSet
from repro.stats import Triplet


@dataclass(frozen=True, slots=True)
class AreaBreakdown:
    """Chip area consumed by one predicted design, by contributor.

    The paper notes "the areas of chips are consumed by not only
    functional units but also by registers, steering logic, controllers
    and wiring" (section 1.1) — exactly these five triplets.
    """

    functional_units: Triplet
    registers: Triplet
    multiplexers: Triplet
    controller: Triplet
    wiring: Triplet

    @property
    def total(self) -> Triplet:
        return Triplet.sum(
            (
                self.functional_units,
                self.registers,
                self.multiplexers,
                self.controller,
                self.wiring,
            )
        )


@dataclass(frozen=True, slots=True)
class DesignPrediction:
    """One predicted implementation of one partition."""

    partition: str
    module_set: ModuleSet
    timing: OperationTiming
    pipelined: bool
    #: Units allocated per resource class (op-type value or ``mem:<block>``).
    operators: Mapping[str, int]
    #: Initiation interval and latency in datapath cycles.
    ii_dp: int
    latency_dp: int
    #: The same quantities in main-clock cycles (as the paper's tables).
    ii_main: int
    latency_main: int
    register_bits: int
    register_words: int
    mux_count: int
    area: AreaBreakdown
    controller: PlaEstimate
    #: Delay added to each datapath cycle (register + mux + wiring + PLA).
    clock_overhead_ns: float
    #: Bits moved against each memory block per iteration.
    memory_bandwidth_bits: Mapping[str, int]
    #: Partition boundary sizes, used to size data-transfer tasks.
    input_bits: int
    output_bits: int
    #: Average power of the implementation (the paper's section-5
    #: extension), in milliwatts.
    power_mw: Triplet = Triplet.zero()

    @property
    def stages(self) -> int:
        """Control steps of the datapath schedule (the paper's 'stages')."""
        return self.latency_dp

    @property
    def style_label(self) -> str:
        kind = "pipelined" if self.pipelined else "non-pipelined"
        return f"{kind}, {self.timing.value}"

    @property
    def area_total(self) -> Triplet:
        return self.area.total

    def operator_summary(self) -> str:
        """Human-readable operator allocation, e.g. ``2 add, 3 mul``."""
        parts = [
            f"{units} {cls}" for cls, units in sorted(self.operators.items())
        ]
        return ", ".join(parts)

    def dominates(self, other: "DesignPrediction") -> bool:
        """Pareto dominance on (II, latency, most-likely area).

        Used by the pruning machinery to drop *inferior* predictions: a
        design no better than another in any dimension and worse in at
        least one.
        """
        no_worse = (
            self.ii_main <= other.ii_main
            and self.latency_main <= other.latency_main
            and self.area_total.ml <= other.area_total.ml
        )
        better = (
            self.ii_main < other.ii_main
            or self.latency_main < other.latency_main
            or self.area_total.ml < other.area_total.ml
        )
        return no_worse and better

    def guideline_lines(self) -> List[str]:
        """The section-3.1-style synthesis guidance for this design."""
        lines = [
            f"a {self.style_label} design style with {self.stages} stages",
            f"module library of {self.module_set.label}",
            self.operator_summary(),
            f"{self.register_bits} bits of registers for the data path",
            f"{self.mux_count} 1-bit 2-to-1 multiplexers",
            (
                f"predicted area {self.area_total} mil^2, initiation "
                f"interval {self.ii_main}, delay {self.latency_main} "
                "(main clock cycles)"
            ),
        ]
        if self.memory_bandwidth_bits:
            for block, bits in sorted(self.memory_bandwidth_bits.items()):
                lines.append(f"memory {block}: {bits} bits per iteration")
        return lines

    def sort_key(self) -> Tuple[int, int, float]:
        """Paper ordering: II first, then circuit delay (Figure 5)."""
        return (self.ii_main, self.latency_main, self.area_total.ml)
