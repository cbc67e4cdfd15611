"""Data-flow graph representation of behavioral specifications.

A :class:`DataFlowGraph` is a bipartite structure of :class:`Operation`
nodes connected through :class:`Value` edges.  Values carry bit widths —
the unit in which pin usage and transfer sizes are later computed.  Primary
inputs are values with no producing operation; primary outputs are values
explicitly marked as leaving the design (a value can be an output *and*
feed further operations).

The graph must be acyclic (the paper's restriction, section 2.3); the
structure enforces this lazily through :meth:`DataFlowGraph.topological_order`,
and eagerly through :func:`repro.dfg.transforms.validate_graph`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dfg.ops import MEMORY_OP_TYPES, OpType
from repro.errors import SpecificationError
from repro.units import MAX_BIT_WIDTH


@dataclass(frozen=True, slots=True)
class Value:
    """A datum flowing between operations.

    ``producer`` is the id of the operation computing the value, or ``None``
    for a primary input.  ``width`` is the bit width.
    """

    id: str
    width: int
    producer: Optional[str] = None
    is_output: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.width <= MAX_BIT_WIDTH:
            raise SpecificationError(
                f"value {self.id!r} must have a width in 1..{MAX_BIT_WIDTH}"
                f" bits, got {self.width}"
            )


@dataclass(frozen=True, slots=True)
class Operation:
    """One node of the data-flow graph.

    ``inputs`` is the ordered tuple of consumed value ids; ``output`` the
    produced value id (``None`` only for memory writes, which produce no
    datapath value).  Memory operations name the ``memory_block`` they
    touch so that bandwidth accounting can attribute the access.
    """

    id: str
    op_type: OpType
    inputs: Tuple[str, ...]
    output: Optional[str]
    memory_block: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op_type in MEMORY_OP_TYPES:
            if self.memory_block is None:
                raise SpecificationError(
                    f"memory operation {self.id!r} must name a memory block"
                )
        elif self.memory_block is not None:
            raise SpecificationError(
                f"compute operation {self.id!r} must not name a memory block"
            )
        if self.op_type is OpType.MEM_WRITE:
            if self.output is not None:
                raise SpecificationError(
                    f"memory write {self.id!r} must not produce a value"
                )
            if len(self.inputs) != 1:
                raise SpecificationError(
                    f"memory write {self.id!r} must consume exactly one value"
                )
        elif self.output is None:
            raise SpecificationError(
                f"operation {self.id!r} must produce a value"
            )


class DataFlowGraph:
    """An acyclic data-flow graph of operations and values.

    Construct through :class:`repro.dfg.builders.GraphBuilder` rather than
    by hand; the builder enforces referential integrity incrementally.
    """

    def __init__(
        self,
        name: str,
        operations: Dict[str, Operation],
        values: Dict[str, Value],
    ) -> None:
        self.name = name
        self._operations = dict(operations)
        self._values = dict(values)
        self._check_integrity()
        self._index_structure()
        self._order: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # construction-time checks
    # ------------------------------------------------------------------
    def _check_integrity(self) -> None:
        for op in self._operations.values():
            for vid in op.inputs:
                if vid not in self._values:
                    raise SpecificationError(
                        f"operation {op.id!r} consumes unknown value {vid!r}"
                    )
            if op.output is not None:
                if op.output not in self._values:
                    raise SpecificationError(
                        f"operation {op.id!r} produces unknown value {op.output!r}"
                    )
                value = self._values[op.output]
                if value.producer != op.id:
                    raise SpecificationError(
                        f"value {op.output!r} does not record {op.id!r} as producer"
                    )
        for value in self._values.values():
            if value.producer is not None:
                producer = self._operations.get(value.producer)
                if producer is None:
                    raise SpecificationError(
                        f"value {value.id!r} names unknown producer "
                        f"{value.producer!r}"
                    )
                if producer.output != value.id:
                    raise SpecificationError(
                        f"producer {value.producer!r} does not output "
                        f"{value.id!r}"
                    )

    def _index_structure(self) -> None:
        """Consumers per value, predecessors and successors per operation.

        The graph never changes after construction, so these tuples are
        built once and every schedule of it reads them uncopied.
        """
        consumers: Dict[str, List[str]] = {vid: [] for vid in self._values}
        for op in self._operations.values():
            for vid in op.inputs:
                consumers[vid].append(op.id)
        self._consumers: Dict[str, Tuple[str, ...]] = {
            vid: tuple(ops) for vid, ops in consumers.items()
        }
        values = self._values
        self._preds: Dict[str, Tuple[str, ...]] = {}
        self._succs: Dict[str, Tuple[str, ...]] = {}
        for op_id, op in self._operations.items():
            # Deduplicated, in input order.
            producers = (values[vid].producer for vid in op.inputs)
            self._preds[op_id] = tuple(
                dict.fromkeys(p for p in producers if p is not None)
            )
            self._succs[op_id] = (
                () if op.output is None else self._consumers[op.output]
            )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def operations(self) -> Dict[str, Operation]:
        """Mapping of operation id to operation (do not mutate)."""
        return self._operations

    @property
    def values(self) -> Dict[str, Value]:
        """Mapping of value id to value (do not mutate)."""
        return self._values

    def operation(self, op_id: str) -> Operation:
        try:
            return self._operations[op_id]
        except KeyError:
            raise SpecificationError(f"unknown operation {op_id!r}") from None

    def value(self, value_id: str) -> Value:
        try:
            return self._values[value_id]
        except KeyError:
            raise SpecificationError(f"unknown value {value_id!r}") from None

    def consumers(self, value_id: str) -> Tuple[str, ...]:
        """Operation ids consuming the given value."""
        self.value(value_id)
        return self._consumers.get(value_id, ())

    def primary_inputs(self) -> List[Value]:
        """Values with no producing operation, in id order."""
        return sorted(
            (v for v in self._values.values() if v.producer is None),
            key=lambda v: v.id,
        )

    def primary_outputs(self) -> List[Value]:
        """Values marked as leaving the design, in id order."""
        return sorted(
            (v for v in self._values.values() if v.is_output),
            key=lambda v: v.id,
        )

    def op_count(self) -> int:
        return len(self._operations)

    def op_counts_by_type(self) -> Dict[OpType, int]:
        """Number of operations of each type present in the graph."""
        counts: Dict[OpType, int] = {}
        for op in self._operations.values():
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def predecessor_index(self) -> Dict[str, Tuple[str, ...]]:
        """Every operation's :meth:`predecessors`, as tuples built once
        (do not mutate)."""
        return self._preds

    @property
    def successor_index(self) -> Dict[str, Tuple[str, ...]]:
        """Every operation's :meth:`successors`, as tuples built once: an
        operation reading one value twice is listed twice (do not
        mutate)."""
        return self._succs

    def predecessors(self, op_id: str) -> List[str]:
        """Operations producing the inputs of ``op_id`` (deduplicated)."""
        self.operation(op_id)
        return list(self._preds[op_id])

    def successors(self, op_id: str) -> List[str]:
        """Operations consuming the output of ``op_id``."""
        self.operation(op_id)
        return list(self._succs[op_id])

    def topological_order(self) -> List[str]:
        """Operation ids in a dependency-respecting order.

        Raises :class:`SpecificationError` when the graph is cyclic — the
        paper requires inner loops to be unrolled before partitioning.
        Ties are broken by operation id so the order is deterministic.
        The order is derived once and kept; each call returns a fresh
        list.
        """
        if self._order is None:
            self._order = tuple(self._derive_order())
        return list(self._order)

    def _derive_order(self) -> List[str]:
        succs = self._succs
        indegree = {op_id: 0 for op_id in self._operations}
        for op_id in self._operations:
            for succ in succs[op_id]:
                indegree[succ] += 1
        ready = deque(sorted(op_id for op_id, d in indegree.items() if d == 0))
        order: List[str] = []
        while ready:
            op_id = ready.popleft()
            order.append(op_id)
            newly_ready = []
            for succ in succs[op_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    newly_ready.append(succ)
            for succ in sorted(newly_ready):
                ready.append(succ)
        if len(order) != len(self._operations):
            raise SpecificationError(
                f"graph {self.name!r} contains a cycle; unroll inner loops "
                "before partitioning (paper section 2.3)"
            )
        return order

    def depth(self) -> int:
        """Length of the longest operation chain (critical path in ops)."""
        preds = self._preds
        levels: Dict[str, int] = {}
        for op_id in self.topological_order():
            levels[op_id] = 1 + max(
                (levels[p] for p in preds[op_id]), default=0
            )
        return max(levels.values(), default=0)

    def subgraph_ops(self, op_ids: Iterable[str]) -> "DataFlowGraph":
        """The induced subgraph over a subset of operations.

        Values produced outside the subset become primary inputs of the
        subgraph; values consumed outside it (or marked as outputs) become
        primary outputs.  This is exactly the view BAD takes of one
        partition: "all inputs to partitions are assumed to be
        simultaneously available before the execution starts".
        """
        chosen = set(op_ids)
        unknown = chosen - set(self._operations)
        if unknown:
            raise SpecificationError(
                f"subgraph references unknown operations: {sorted(unknown)}"
            )
        # Walk the subset in this graph's order, not the set's: set order
        # follows string hashing, which changes from process to process,
        # and the subgraph's order is the order BAD's dicts are built in.
        members = [op_id for op_id in self._operations if op_id in chosen]
        ops: Dict[str, Operation] = {}
        values: Dict[str, Value] = {}
        for op_id in members:
            op = self._operations[op_id]
            ops[op_id] = op
            for vid in op.inputs:
                original = self._values[vid]
                if original.producer in chosen:
                    continue  # will be added as an internal value below
                values.setdefault(
                    vid,
                    Value(id=vid, width=original.width, producer=None),
                )
        for op_id in members:
            op = self._operations[op_id]
            if op.output is None:
                continue
            original = self._values[op.output]
            external_consumer = any(
                c not in chosen for c in self._consumers.get(op.output, ())
            )
            values[op.output] = Value(
                id=op.output,
                width=original.width,
                producer=op_id,
                is_output=original.is_output or external_consumer,
            )
        return DataFlowGraph(
            name=f"{self.name}:sub", operations=ops, values=values
        )

    def cut_values(
        self, partition_of: Dict[str, str]
    ) -> List[Tuple[str, str, Set[str]]]:
        """Values crossing partition boundaries.

        ``partition_of`` maps operation id to a partition name.  Returns a
        list of (value id, producing partition, consuming partitions)
        tuples, sorted by value id, for values whose consumers include an
        operation in a different partition than the producer.
        """
        cuts: List[Tuple[str, str, Set[str]]] = []
        for vid in sorted(self._values):
            value = self._values[vid]
            if value.producer is None:
                continue
            src = partition_of.get(value.producer)
            if src is None:
                continue
            destinations = {
                partition_of[c]
                for c in self._consumers.get(vid, ())
                if c in partition_of and partition_of[c] != src
            }
            if destinations:
                cuts.append((vid, src, destinations))
        return cuts

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, op_id: str) -> bool:
        return op_id in self._operations

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def __len__(self) -> int:
        return len(self._operations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataFlowGraph({self.name!r}, ops={len(self._operations)}, "
            f"values={len(self._values)})"
        )
