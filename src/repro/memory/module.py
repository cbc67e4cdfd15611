"""Memory module descriptions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ChipError


@dataclass(frozen=True, slots=True)
class MemoryModule:
    """One memory block of the design's (pre-designed) memory hierarchy.

    The paper assumes the memory hierarchy is designed prior to
    partitioning (section 2.2).  A block is either implemented on one of
    the design's chips (consuming its area) or is an off-the-shelf memory
    chip (consuming no design area, only pins on the chips that access
    it).  ``ports`` bounds how many accesses the block serves per transfer
    cycle; ``access_time_ns`` contributes to the transfer clock's
    feasibility.
    """

    name: str
    words: int
    width_bits: int
    ports: int = 1
    access_time_ns: float = 100.0
    #: Area per bit when the block is implemented on a design chip; the
    #: default is a 3-micron static RAM cell in the style of Table 1's
    #: register cell but denser (shared decode).
    area_per_bit_mil2: float = 4.0
    off_the_shelf: bool = False

    def __post_init__(self) -> None:
        if self.words <= 0 or self.width_bits <= 0:
            raise ChipError(
                f"memory {self.name!r}: words and width must be positive"
            )
        if self.ports <= 0:
            raise ChipError(f"memory {self.name!r}: needs at least one port")
        if self.access_time_ns <= 0:
            raise ChipError(
                f"memory {self.name!r}: access time must be positive"
            )
        if self.area_per_bit_mil2 < 0:
            raise ChipError(
                f"memory {self.name!r}: area per bit must be non-negative"
            )

    @property
    def capacity_bits(self) -> int:
        return self.words * self.width_bits

    @property
    def address_bits(self) -> int:
        """Address width needed to span the block."""
        return max(1, math.ceil(math.log2(self.words))) if self.words > 1 else 1

    def on_chip_area_mil2(self) -> float:
        """Die area when the block lives on a design chip."""
        if self.off_the_shelf:
            return 0.0
        return self.capacity_bits * self.area_per_bit_mil2

    #: Pins needed on a chip to talk to this block when it is NOT on that
    #: chip: data + address (Select and R/W are counted separately as
    #: dedicated pins by the pin budget).
    def interface_pins(self) -> int:
        return self.width_bits + self.address_bits
