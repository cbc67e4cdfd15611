"""The designer's tentative partitioning.

A :class:`Partitioning` captures everything the designer proposes before
CHOP checks feasibility: the partitions, their assignment to chips, the
memory blocks and their chip assignments.  Multiple partitions may share
a chip; memory blocks may live on design chips or be off-the-shelf chips
of their own (section 2.4, Figure 2).

Structural rules enforced here (section 2.3):

* partitions are disjoint and cover the whole graph,
* no two partitions have mutual data dependency (the partition-level
  dependency graph is acyclic — cyclic data flow among *chips* remains
  allowed because several partitions can share a chip),
* every referenced chip and memory block exists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.chips.chip import Chip
from repro.core.partition import Partition
from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import MEMORY_OP_TYPES
from repro.errors import PartitioningError
from repro.memory.module import MemoryModule


class Partitioning:
    """A complete tentative partitioning of one specification."""

    def __init__(
        self,
        graph: DataFlowGraph,
        partitions: Iterable[Partition],
        chips: Iterable[Chip],
        partition_chip: Mapping[str, str],
        memories: Iterable[MemoryModule] = (),
        memory_chip: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.partitions: Dict[str, Partition] = {}
        for partition in partitions:
            if partition.name in self.partitions:
                raise PartitioningError(
                    f"duplicate partition name {partition.name!r}"
                )
            self.partitions[partition.name] = partition
        self.chips: Dict[str, Chip] = {}
        for chip in chips:
            if chip.name in self.chips:
                raise PartitioningError(f"duplicate chip name {chip.name!r}")
            self.chips[chip.name] = chip
        self.partition_chip: Dict[str, str] = dict(partition_chip)
        self.memories: Dict[str, MemoryModule] = {
            m.name: m for m in memories
        }
        self.memory_chip: Dict[str, str] = dict(memory_chip or {})
        self._partition_of: Dict[str, str] = {}
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.partitions:
            raise PartitioningError("a partitioning needs at least one partition")
        covered: Set[str] = set()
        for partition in self.partitions.values():
            unknown = partition.op_ids - set(self.graph.operations)
            if unknown:
                raise PartitioningError(
                    f"partition {partition.name!r} references unknown "
                    f"operations: {sorted(unknown)[:5]}"
                )
            overlap = covered & partition.op_ids
            if overlap:
                raise PartitioningError(
                    f"operations assigned to multiple partitions: "
                    f"{sorted(overlap)[:5]}"
                )
            covered |= partition.op_ids
            for op_id in partition.op_ids:
                self._partition_of[op_id] = partition.name
        uncovered = set(self.graph.operations) - covered
        if uncovered:
            raise PartitioningError(
                f"operations not assigned to any partition: "
                f"{sorted(uncovered)[:5]}"
            )

        for name in self.partitions:
            chip = self.partition_chip.get(name)
            if chip is None:
                raise PartitioningError(
                    f"partition {name!r} is not assigned to a chip"
                )
            if chip not in self.chips:
                raise PartitioningError(
                    f"partition {name!r} assigned to unknown chip {chip!r}"
                )
        for extra in set(self.partition_chip) - set(self.partitions):
            raise PartitioningError(
                f"assignment references unknown partition {extra!r}"
            )

        for mem_name in self.memories:
            chip = self.memory_chip.get(mem_name)
            module = self.memories[mem_name]
            if module.off_the_shelf:
                continue  # its own chip; no design-chip assignment needed
            if chip is None:
                raise PartitioningError(
                    f"on-chip memory {mem_name!r} is not assigned to a chip"
                )
            if chip not in self.chips:
                raise PartitioningError(
                    f"memory {mem_name!r} assigned to unknown chip {chip!r}"
                )
        referenced_blocks = {
            op.memory_block
            for op in self.graph
            if op.op_type in MEMORY_OP_TYPES
        }
        missing = referenced_blocks - set(self.memories)
        if missing:
            raise PartitioningError(
                f"operations access undeclared memory blocks: "
                f"{sorted(missing)}"
            )

        self._check_no_mutual_dependency()

    def _check_no_mutual_dependency(self) -> None:
        """Reject cyclic dependencies between partitions (section 2.3)."""
        edges = self.partition_dependencies()
        # Kahn's algorithm over the partition-level graph.
        indegree = {name: 0 for name in self.partitions}
        for _src, dst in edges:
            indegree[dst] += 1
        ready = [name for name, d in indegree.items() if d == 0]
        seen = 0
        successors: Dict[str, List[str]] = {n: [] for n in self.partitions}
        for src, dst in edges:
            successors[src].append(dst)
        while ready:
            name = ready.pop()
            seen += 1
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if seen != len(self.partitions):
            raise PartitioningError(
                "partitions have mutual data dependencies; the prediction "
                "model requires the partition-level graph to be acyclic "
                "(paper section 2.3)"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def partition_of(self, op_id: str) -> str:
        """Partition name owning the operation."""
        try:
            return self._partition_of[op_id]
        except KeyError:
            raise PartitioningError(
                f"operation {op_id!r} is not assigned"
            ) from None

    def partition_map(self) -> Dict[str, str]:
        """A copy of the operation-to-partition mapping."""
        return dict(self._partition_of)

    def chip_of(self, partition_name: str) -> str:
        chip = self.partition_chip.get(partition_name)
        if chip is None:
            raise PartitioningError(
                f"unknown partition {partition_name!r}"
            )
        return chip

    def partitions_on_chip(self, chip_name: str) -> List[str]:
        if chip_name not in self.chips:
            raise PartitioningError(f"unknown chip {chip_name!r}")
        return sorted(
            name
            for name, chip in self.partition_chip.items()
            if chip == chip_name
        )

    def memories_on_chip(self, chip_name: str) -> List[str]:
        return sorted(
            name
            for name, chip in self.memory_chip.items()
            if chip == chip_name
        )

    def partition_dependencies(self) -> List[Tuple[str, str]]:
        """Distinct (producer partition, consumer partition) pairs."""
        pairs: Set[Tuple[str, str]] = set()
        for _vid, src, dests in self.graph.cut_values(self._partition_of):
            for dst in dests:
                pairs.add((src, dst))
        return sorted(pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partitioning({self.graph.name!r}, "
            f"{len(self.partitions)} partitions on {len(self.chips)} chips)"
        )
