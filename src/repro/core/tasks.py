"""Data-transfer task creation (the paper's Figure 3).

"When the information about partition and memory block assignments is
available, data transfer tasks are created by CHOP to transfer data among
partitions ... This process involves determining the manner and the
amount of data to be transferred, reserving enough pins for control
signals ... and also for other necessary signal pins which are not shared
(Select, R/W lines for memory blocks)" (section 2.4).

The task graph holds:

* one **processing-unit task** per partition,
* one **input task** per partition consuming primary inputs (system
  inputs arrive over the host chip's pins),
* one **transfer task** per (producer partition, consumer partition)
  pair whose partitions live on *different* chips (same-chip data flows
  on-die and needs no pins, only a precedence edge),
* one **output task** per partition producing primary outputs,

plus the per-chip *memory pin load*: interface pins consumed by accesses
to memory blocks not resident on the accessing chip, unavailable to
transfer tasks while the design runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.partitioning import Partitioning
from repro.dfg.ops import MEMORY_OP_TYPES
from repro.errors import PartitioningError
from repro.memory.access import memory_access_profile


class TaskKind(enum.Enum):
    PROCESS = "process"
    INPUT = "input"
    TRANSFER = "transfer"
    OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class TransferTask:
    """One node of the task graph.

    ``bits`` is the data volume D moved per iteration (zero for process
    tasks, whose cost comes from the selected prediction).  ``chips`` are
    the chips whose pins the task occupies — empty for process tasks,
    one chip for system input/output tasks, the source and destination
    chips for inter-chip transfers.
    """

    name: str
    kind: TaskKind
    bits: int
    chips: Tuple[str, ...]
    #: The partition a PROCESS task implements, or the producing /
    #: consuming partition of a data task (for reporting).
    partition: Optional[str] = None

    @property
    def moves_data(self) -> bool:
        return self.kind is not TaskKind.PROCESS


class TaskGraph:
    """Tasks plus precedence edges plus per-chip memory pin load."""

    def __init__(
        self,
        tasks: Dict[str, TransferTask],
        edges: List[Tuple[str, str]],
        memory_pin_loads: Dict[str, int],
    ) -> None:
        self.tasks = dict(tasks)
        self.edges = list(edges)
        self.memory_pin_loads = dict(memory_pin_loads)
        self._successors: Dict[str, List[str]] = {t: [] for t in self.tasks}
        self._predecessors: Dict[str, List[str]] = {t: [] for t in self.tasks}
        for src, dst in self.edges:
            if src not in self.tasks or dst not in self.tasks:
                raise PartitioningError(
                    f"task edge references unknown task: {src!r} -> {dst!r}"
                )
            self._successors[src].append(dst)
            self._predecessors[dst].append(src)
        self._order: Optional[Tuple[str, ...]] = None

    def successors(self, task: str) -> List[str]:
        return list(self._successors[task])

    def predecessors(self, task: str) -> List[str]:
        return list(self._predecessors[task])

    def topological_order(self) -> List[str]:
        """Tasks in dependency order, ties broken by name.

        A task graph is never changed after construction, so the order
        is derived once and kept; every integration of a search reuses
        it.
        """
        if self._order is None:
            self._order = tuple(self._derive_order())
        return list(self._order)

    def _derive_order(self) -> List[str]:
        indegree = {t: len(self._predecessors[t]) for t in self.tasks}
        ready = sorted(t for t, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            task = ready.pop(0)
            order.append(task)
            fresh = []
            for succ in self._successors[task]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    fresh.append(succ)
            ready.extend(sorted(fresh))
            ready.sort()
        if len(order) != len(self.tasks):
            raise PartitioningError("task graph contains a cycle")
        return order

    def data_tasks(self) -> List[TransferTask]:
        return [t for t in self.tasks.values() if t.moves_data]

    def process_tasks(self) -> List[TransferTask]:
        return [
            t for t in self.tasks.values() if t.kind is TaskKind.PROCESS
        ]

    def communication_links(self, chip: str) -> int:
        """Distinct partner chips this chip exchanges data with.

        System inputs and outputs count as one external partner each —
        the distributed controllers still handshake with the outside
        world.
        """
        partners: Set[str] = set()
        for task in self.tasks.values():
            if not task.moves_data or chip not in task.chips:
                continue
            if task.kind in (TaskKind.INPUT, TaskKind.OUTPUT):
                partners.add(f"__world_{task.kind.value}__")
            else:
                partners.update(c for c in task.chips if c != chip)
        return len(partners)


def build_task_graph(partitioning: Partitioning) -> TaskGraph:
    """Create the task graph of a tentative partitioning."""
    graph = partitioning.graph
    partition_of = partitioning.partition_map()
    tasks: Dict[str, TransferTask] = {}
    edges: List[Tuple[str, str]] = []

    for name in partitioning.partitions:
        tasks[f"pu:{name}"] = TransferTask(
            name=f"pu:{name}",
            kind=TaskKind.PROCESS,
            bits=0,
            chips=(),
            partition=name,
        )

    # System inputs: primary input values grouped by consuming partition.
    input_bits: Dict[str, int] = {}
    for value in graph.primary_inputs():
        consuming = {
            partition_of[c] for c in graph.consumers(value.id)
        }
        for partition in consuming:
            input_bits[partition] = input_bits.get(partition, 0) + value.width
    for partition, bits in sorted(input_bits.items()):
        name = f"in:{partition}"
        tasks[name] = TransferTask(
            name=name,
            kind=TaskKind.INPUT,
            bits=bits,
            chips=(partitioning.chip_of(partition),),
            partition=partition,
        )
        edges.append((name, f"pu:{partition}"))

    # Inter-partition transfers from cut values.
    pair_bits: Dict[Tuple[str, str], int] = {}
    for vid, src, dests in graph.cut_values(partition_of):
        width = graph.value(vid).width
        for dst in dests:
            pair_bits[(src, dst)] = pair_bits.get((src, dst), 0) + width
    for (src, dst), bits in sorted(pair_bits.items()):
        src_chip = partitioning.chip_of(src)
        dst_chip = partitioning.chip_of(dst)
        if src_chip == dst_chip:
            edges.append((f"pu:{src}", f"pu:{dst}"))
            continue
        name = f"xfer:{src}->{dst}"
        tasks[name] = TransferTask(
            name=name,
            kind=TaskKind.TRANSFER,
            bits=bits,
            chips=(src_chip, dst_chip),
            partition=src,
        )
        edges.append((f"pu:{src}", name))
        edges.append((name, f"pu:{dst}"))

    # System outputs: primary output values grouped by producing partition.
    output_bits: Dict[str, int] = {}
    for value in graph.primary_outputs():
        if value.producer is None:
            continue  # an input marked as output needs no computation
        partition = partition_of[value.producer]
        output_bits[partition] = output_bits.get(partition, 0) + value.width
    for partition, bits in sorted(output_bits.items()):
        name = f"out:{partition}"
        tasks[name] = TransferTask(
            name=name,
            kind=TaskKind.OUTPUT,
            bits=bits,
            chips=(partitioning.chip_of(partition),),
            partition=partition,
        )
        edges.append((f"pu:{partition}", name))

    memory_pin_loads = _memory_pin_loads(partitioning)
    return TaskGraph(tasks=tasks, edges=edges, memory_pin_loads=memory_pin_loads)


def _memory_pin_loads(partitioning: Partitioning) -> Dict[str, int]:
    """Interface pins each chip spends on non-resident memory traffic.

    Both sides of an off-chip memory access pay: the accessing chip needs
    the data+address interface toward the block, and — when the block
    lives on another *design* chip — that chip exposes the same interface.
    Off-the-shelf memory chips are outside the design, so only the
    accessing side pays.
    """
    loads: Dict[str, int] = {chip: 0 for chip in partitioning.chips}
    for chip, interfaces in memory_interfaces(partitioning).items():
        loads[chip] = sum(
            partitioning.memories[block].interface_pins()
            for block in interfaces
        )
    return loads


def memory_interfaces(partitioning: Partitioning) -> Dict[str, Set[str]]:
    """Memory blocks each chip needs an off-chip interface toward.

    A chip interfaces a block when one of its partitions accesses a
    non-resident block, or when it hosts a block accessed from another
    chip.  Each interface also costs the dedicated Select and R/W pins
    counted by :func:`repro.chips.chip.pin_budget`.
    """
    interfaces: Dict[str, Set[str]] = {
        chip: set() for chip in partitioning.chips
    }
    for name, partition in partitioning.partitions.items():
        chip = partitioning.chip_of(name)
        profile = memory_access_profile(partitioning.graph, partition.op_ids)
        if not profile.blocks:
            continue
        resident = set(partitioning.memories_on_chip(chip))
        for block in profile.blocks:
            if block in resident:
                continue
            if block not in partitioning.memories:
                raise PartitioningError(
                    f"operations access undeclared memory block {block!r}"
                )
            interfaces[chip].add(block)
            module = partitioning.memories[block]
            host = partitioning.memory_chip.get(block)
            if host is not None and not module.off_the_shelf:
                interfaces[host].add(block)
    return interfaces
