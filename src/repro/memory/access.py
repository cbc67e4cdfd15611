"""Memory-access accounting for partitions.

BAD's per-partition results include "memory bandwidth requirements for
each memory block (I/O operations are modeled as memory-mapped I/O)"
(section 2.4).  :func:`memory_access_profile` extracts those requirements
from a partition's operations, and :func:`memory_pin_load` converts a
profile into the pin load a chip sees when the accessed blocks are not
resident on it — the "effects of simultaneous memory I/O on pin usage"
of section 2.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import OpType
from repro.errors import PartitioningError
from repro.memory.module import MemoryModule


@dataclass(frozen=True, slots=True)
class MemoryAccessProfile:
    """Accesses a set of operations makes against each memory block.

    ``reads``/``writes`` count word accesses per graph execution
    (equivalently per initiation, since the whole process pipelines).
    """

    reads: Mapping[str, int]
    writes: Mapping[str, int]

    @property
    def blocks(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.reads) | set(self.writes)))

    def accesses(self, block: str) -> int:
        """Total word accesses against ``block``."""
        return self.reads.get(block, 0) + self.writes.get(block, 0)

    def bandwidth_bits(
        self, modules: Mapping[str, MemoryModule]
    ) -> Dict[str, int]:
        """Bits moved against each block per execution."""
        result: Dict[str, int] = {}
        for block in self.blocks:
            module = modules.get(block)
            if module is None:
                raise PartitioningError(
                    f"operations access unknown memory block {block!r}"
                )
            result[block] = self.accesses(block) * module.width_bits
        return result


def memory_access_profile(
    graph: DataFlowGraph, op_ids: Iterable[str]
) -> MemoryAccessProfile:
    """Profile the memory operations among ``op_ids`` of ``graph``."""
    reads: Dict[str, int] = {}
    writes: Dict[str, int] = {}
    for op_id in op_ids:
        op = graph.operation(op_id)
        if op.op_type is OpType.MEM_READ:
            assert op.memory_block is not None
            reads[op.memory_block] = reads.get(op.memory_block, 0) + 1
        elif op.op_type is OpType.MEM_WRITE:
            assert op.memory_block is not None
            writes[op.memory_block] = writes.get(op.memory_block, 0) + 1
    return MemoryAccessProfile(reads=reads, writes=writes)


def memory_pin_load(
    profile: MemoryAccessProfile,
    modules: Mapping[str, MemoryModule],
    resident_blocks: Iterable[str],
) -> int:
    """Peak pins a chip needs for off-chip memory traffic.

    ``resident_blocks`` are the blocks living on the chip itself (accesses
    to them stay on-die).  Each non-resident accessed block requires its
    full data+address interface on the accessing chip; interfaces are not
    shared between blocks because Select/R-W timing differs per block.
    """
    resident = set(resident_blocks)
    pins = 0
    for block in profile.blocks:
        if block in resident:
            continue
        module = modules.get(block)
        if module is None:
            raise PartitioningError(
                f"operations access unknown memory block {block!r}"
            )
        pins += module.interface_pins()
    return pins
