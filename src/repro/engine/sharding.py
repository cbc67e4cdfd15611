"""Deterministic sharding of the combination cross-product.

The enumeration heuristic walks the cross product of per-partition
prediction lists in :func:`itertools.product` order.  That order is a
mixed-radix counter — the *last* partition's index varies fastest — so
any combination can be addressed by a single flat integer and decoded
with :func:`decode_combination`.  A shard is therefore nothing but a
half-open ``[start, stop)`` index range: workers need only the range and
the (immutable) prediction lists, never an enumerated combination list,
and concatenating shard results in ``start`` order reproduces the exact
serial visit order regardless of which worker ran which shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class Shard:
    """One contiguous slice of the flat combination index space."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"invalid shard range [{self.start}, {self.stop})"
            )

    @property
    def size(self) -> int:
        return self.stop - self.start


def combination_count(radices: Sequence[int]) -> int:
    """The size of the cross product with the given list lengths."""
    total = 1
    for radix in radices:
        if radix < 1:
            raise ValueError(f"radices must be >= 1, got {list(radices)}")
        total *= radix
    return total


def decode_combination(
    flat: int, radices: Sequence[int]
) -> Tuple[int, ...]:
    """Mixed-radix decode of a flat index into per-list positions.

    The digit order matches ``itertools.product``: the last radix is the
    least-significant digit.  ``decode_combination(0, r)`` is all zeros
    and successive flat indices enumerate combinations in exactly the
    order the serial search visits them.
    """
    if flat < 0:
        raise ValueError(f"flat index must be >= 0, got {flat}")
    digits = [0] * len(radices)
    remainder = flat
    for position in range(len(radices) - 1, -1, -1):
        radix = radices[position]
        if radix < 1:
            raise ValueError(f"radices must be >= 1, got {list(radices)}")
        digits[position] = remainder % radix
        remainder //= radix
    if remainder:
        raise ValueError(
            f"flat index {flat} out of range for radices {list(radices)}"
        )
    return tuple(digits)


def plan_shards(total: int, shard_count: int) -> List[Shard]:
    """Split ``[0, total)`` into at most ``shard_count`` balanced ranges.

    Shard sizes differ by at most one and the ranges tile the space
    exactly, in order — the deterministic contract the merge step checks.
    An empty space yields no shards.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if total == 0:
        return []
    shard_count = min(shard_count, total)
    base, extra = divmod(total, shard_count)
    shards: List[Shard] = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, start=start, stop=start + size))
        start += size
    return shards
