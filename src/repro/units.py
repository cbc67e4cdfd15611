"""Unit conventions and conversion helpers.

The paper works in 1990s MOSIS units and this reproduction keeps them:

* lengths in **mil** (1/1000 inch),
* areas in **square mil** (``mil^2``),
* times in **nanoseconds**,
* data sizes in **bits**.

Clock frequencies never appear directly; everything is expressed in cycle
*counts* of one of the three clocks (main, datapath, transfer), exactly as
the paper's tables do.  The helpers below centralise the ceiling-division
and cycle-conversion arithmetic so that rounding rules live in one place.
"""

from __future__ import annotations

import math

MILS_PER_INCH = 1000.0

#: Bit width used throughout the paper's experiments.
DEFAULT_BIT_WIDTH = 16

#: Widest value a data-flow graph may carry, whether it comes from a
#: specification, graph JSON or a project document.
MAX_BIT_WIDTH = 1024


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands.

    >>> ceil_div(7, 3)
    3
    >>> ceil_div(6, 3)
    2
    >>> ceil_div(0, 5)
    0
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def cycles_for_delay(delay_ns: float, cycle_ns: float) -> int:
    """Number of whole clock cycles needed to cover ``delay_ns``.

    A zero delay still occupies one cycle: hardware registers its result at
    a clock edge, so nothing completes in less than a cycle.

    >>> cycles_for_delay(151.0, 300.0)
    1
    >>> cycles_for_delay(301.0, 300.0)
    2
    >>> cycles_for_delay(0.0, 300.0)
    1
    """
    if cycle_ns <= 0:
        raise ValueError(f"cycle_ns must be positive, got {cycle_ns}")
    if delay_ns < 0:
        raise ValueError(f"delay_ns must be non-negative, got {delay_ns}")
    if delay_ns == 0:
        return 1
    return max(1, math.ceil(delay_ns / cycle_ns - 1e-9))


def rect_area(width_mil: float, height_mil: float) -> float:
    """Area of a rectangle in square mil."""
    if width_mil <= 0 or height_mil <= 0:
        raise ValueError(
            f"dimensions must be positive, got {width_mil} x {height_mil}"
        )
    return width_mil * height_mil
