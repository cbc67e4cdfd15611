"""Triplet (lower-bound, most-likely, upper-bound) prediction values.

Every quantity BAD and CHOP predict — areas, delays, bandwidths — is a
:class:`Triplet`.  Arithmetic combines bounds conservatively: lower bounds
add with lower bounds, upper with upper.  This matches the paper's use of a
statistical environment where predictions are triplets and feasibility is
judged probabilistically (section 2.6).

Triplets are immutable; operations return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

Number = Union[int, float]


@dataclass(frozen=True, slots=True)
class Triplet:
    """An uncertain quantity with lower-bound, most-likely and upper-bound.

    Invariant: ``lb <= ml <= ub``.  Exact quantities are triplets with all
    three fields equal (see :meth:`exact`).
    """

    lb: float
    ml: float
    ub: float

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so the chain alone accepts every
        # valid triplet; only a failed chain needs telling apart.
        if not (self.lb <= self.ml <= self.ub):
            if math.isnan(self.lb) or math.isnan(self.ml) or math.isnan(self.ub):
                raise ValueError("triplet fields must not be NaN")
            raise ValueError(
                f"triplet ordering violated: lb={self.lb} ml={self.ml} ub={self.ub}"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def exact(value: Number) -> "Triplet":
        """A certain quantity: all three bounds equal ``value``."""
        v = float(value)
        return Triplet(v, v, v)

    @staticmethod
    def spread(ml: Number, rel_lb: float, rel_ub: float) -> "Triplet":
        """A triplet from a most-likely value and relative bound factors.

        ``rel_lb`` and ``rel_ub`` are multiplicative factors, e.g.
        ``Triplet.spread(100, 0.9, 1.25)`` gives (90, 100, 125).
        """
        if rel_lb > 1.0 or rel_ub < 1.0:
            raise ValueError(
                f"need rel_lb <= 1 <= rel_ub, got {rel_lb}, {rel_ub}"
            )
        m = float(ml)
        if m >= 0:
            return Triplet(m * rel_lb, m, m * rel_ub)
        # Negative most-likely values flip the factor roles.
        return Triplet(m * rel_ub, m, m * rel_lb)

    @staticmethod
    def zero() -> "Triplet":
        """The additive identity."""
        return Triplet(0.0, 0.0, 0.0)

    @staticmethod
    def sum(items: Iterable["Triplet"]) -> "Triplet":
        """Sum of a sequence of triplets (bound-wise)."""
        lb = ml = ub = 0.0
        for item in items:
            lb += item.lb
            ml += item.ml
            ub += item.ub
        return Triplet(lb, ml, ub)

    @staticmethod
    def max(items: Iterable["Triplet"]) -> "Triplet":
        """Bound-wise maximum; identity is the zero triplet.

        Used where a system quantity is set by its slowest contributor
        (e.g. the paper's "performance of each combination is upper bounded
        and set by the slowest partition implementation").
        """
        lb = ml = ub = 0.0
        first = True
        for item in items:
            if first:
                lb, ml, ub = item.lb, item.ml, item.ub
                first = False
            else:
                lb = max(lb, item.lb)
                ml = max(ml, item.ml)
                ub = max(ub, item.ub)
        return Triplet(lb, ml, ub)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Triplet | Number") -> "Triplet":
        other = _coerce(other)
        return Triplet(self.lb + other.lb, self.ml + other.ml, self.ub + other.ub)

    __radd__ = __add__

    def __sub__(self, other: "Triplet | Number") -> "Triplet":
        """Bound-propagating subtraction: worst case pairs lb with ub."""
        other = _coerce(other)
        return Triplet(self.lb - other.ub, self.ml - other.ml, self.ub - other.lb)

    def __mul__(self, factor: Number) -> "Triplet":
        """Scale by a certain non-negative-or-negative scalar."""
        f = float(factor)
        if f >= 0:
            return Triplet(self.lb * f, self.ml * f, self.ub * f)
        return Triplet(self.ub * f, self.ml * f, self.lb * f)

    __rmul__ = __mul__

    def __truediv__(self, divisor: Number) -> "Triplet":
        d = float(divisor)
        if d == 0:
            raise ZeroDivisionError("triplet division by zero")
        return self * (1.0 / d)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Spread between the bounds (zero for exact values)."""
        return self.ub - self.lb

    def __format__(self, spec: str) -> str:
        if not spec:
            spec = ".6g"
        return (
            f"({self.lb:{spec}}, {self.ml:{spec}}, {self.ub:{spec}})"
        )

    def __str__(self) -> str:
        return format(self)


def _coerce(value: "Triplet | Number") -> Triplet:
    if isinstance(value, Triplet):
        return value
    return Triplet.exact(value)
