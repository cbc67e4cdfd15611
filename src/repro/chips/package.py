"""Chip package descriptions (the paper's Table 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ChipError


@dataclass(frozen=True, slots=True)
class ChipPackage:
    """One standard chip package.

    ``width_mil`` x ``height_mil`` is the project (die) area available to
    the design; ``pad_area_mil2`` is consumed per bonded I/O pad;
    ``pad_delay_ns`` is added to every off-chip signal transition.
    """

    name: str
    width_mil: float
    height_mil: float
    pin_count: int
    pad_delay_ns: float
    pad_area_mil2: float

    def __post_init__(self) -> None:
        if self.width_mil <= 0 or self.height_mil <= 0:
            raise ChipError(
                f"package {self.name!r}: dimensions must be positive"
            )
        if self.pin_count <= 0:
            raise ChipError(
                f"package {self.name!r}: pin count must be positive"
            )
        if self.pad_delay_ns < 0 or self.pad_area_mil2 < 0:
            raise ChipError(
                f"package {self.name!r}: pad delay/area must be non-negative"
            )

    @property
    def project_area_mil2(self) -> float:
        """Total die area before pads are subtracted."""
        return self.width_mil * self.height_mil

    def usable_area_mil2(self, bonded_pins: int) -> float:
        """Die area left for logic after ``bonded_pins`` pads.

        Raises :class:`ChipError` when more pins are bonded than the
        package offers or when pads alone exceed the die.
        """
        if bonded_pins < 0:
            raise ChipError(f"bonded pin count must be non-negative")
        if bonded_pins > self.pin_count:
            raise ChipError(
                f"package {self.name!r} has {self.pin_count} pins; "
                f"cannot bond {bonded_pins}"
            )
        remaining = self.project_area_mil2 - bonded_pins * self.pad_area_mil2
        if remaining <= 0:
            raise ChipError(
                f"package {self.name!r}: pads consume the entire die"
            )
        return remaining

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.width_mil:g}x{self.height_mil:g} mil, "
            f"{self.pin_count} pins, pad {self.pad_delay_ns:g} ns"
        )


def scale_package(package: ChipPackage, scale: float) -> ChipPackage:
    """``package`` with its die *area* multiplied by ``scale``.

    Both dimensions stretch by ``sqrt(scale)`` so the aspect ratio is
    preserved; pins, pad delay and pad area are untouched (a scale is a
    die-size decision, not a pinout change).  Scale 1.0 returns the
    package unchanged.
    """
    if scale == 1.0:
        return package
    side = math.sqrt(scale)
    return ChipPackage(
        name=f"{package.name}x{scale:g}",
        width_mil=package.width_mil * side,
        height_mil=package.height_mil * side,
        pin_count=package.pin_count,
        pad_delay_ns=package.pad_delay_ns,
        pad_area_mil2=package.pad_area_mil2,
    )
