"""Modulo register binding for pipelined designs.

A pipelined implementation overlaps iterations every ``II`` cycles, so a
value alive ``s`` cycles has ``ceil(s / II)`` live instances in steady
state; registers must be assigned so no two live instances — of the same
value or different values — collide in any cycle slot.

The binder works in the modulo-time domain: each value occupies the slot
set ``{c mod II : birth <= c < death}`` weighted by how many overlapped
instances cover each slot, and values are packed first-fit into
*register groups* (one physical register per concurrent instance).  The
resulting register count validates the predictor's modulo lifetime
accounting (:func:`repro.bad.allocation.register_requirement`) the same
way the left-edge binder validates the nonpipelined count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.bad.allocation import value_lifetimes
from repro.bad.scheduling import Schedule
from repro.dfg.graph import DataFlowGraph
from repro.errors import PredictionError


@dataclass(frozen=True, slots=True)
class ModuloBinding:
    """Register assignment of one pipelined partition."""

    #: Value id -> tuple of physical register indices (one per
    #: overlapped live instance).
    registers_of: Mapping[str, Tuple[int, ...]]
    register_count: int
    initiation_interval: int


def modulo_register_bind(
    graph: DataFlowGraph,
    schedule: Schedule,
    initiation_interval: int,
) -> ModuloBinding:
    """Pack value lifetimes into registers under modulo-II overlap.

    Returns a binding where every value's live instances have dedicated
    physical registers and no register holds two live values in the same
    modulo slot.  First-fit over values ordered by decreasing slot
    footprint — the standard heuristic; optimal packing is NP-hard.
    """
    if initiation_interval <= 0:
        raise PredictionError(
            f"initiation interval must be positive, got "
            f"{initiation_interval}"
        )
    lifetimes = value_lifetimes(graph, schedule)

    # Per-value modulo footprint: how many instances cover each slot.
    footprints: Dict[str, List[int]] = {}
    for value_id, (birth, death) in lifetimes.items():
        slots = [0] * initiation_interval
        for cycle in range(birth, death):
            slots[cycle % initiation_interval] += 1
        footprints[value_id] = slots

    # Registers: each holds at most one live instance per slot.
    register_slots: List[List[int]] = []  # 0/1 occupancy per slot
    registers_of: Dict[str, Tuple[int, ...]] = {}

    ordered = sorted(
        footprints.items(),
        key=lambda kv: (-sum(kv[1]), kv[0]),
    )
    for value_id, slots in ordered:
        needed = max(slots)
        assigned: List[int] = []
        remaining = [s for s in slots]
        for _instance in range(needed):
            # This instance needs one register free in every slot where
            # the value still has uncovered coverage.
            want = [1 if r > 0 else 0 for r in remaining]
            placed = False
            for index, occupancy in enumerate(register_slots):
                if index in assigned:
                    continue
                if all(
                    not (w and o) for w, o in zip(want, occupancy)
                ):
                    for slot, w in enumerate(want):
                        if w:
                            occupancy[slot] = 1
                    assigned.append(index)
                    placed = True
                    break
            if not placed:
                register_slots.append(list(want))
                assigned.append(len(register_slots) - 1)
            remaining = [max(0, r - 1) for r in remaining]
        registers_of[value_id] = tuple(assigned)

    return ModuloBinding(
        registers_of=registers_of,
        register_count=len(register_slots),
        initiation_interval=initiation_interval,
    )
