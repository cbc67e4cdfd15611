"""Operation-to-unit and value-to-register binding.

Implements the two classic binding steps behavioral synthesis performs
after scheduling:

* **unit binding** — each operation is assigned to a concrete unit
  instance of its resource class, scanning cycles in order and reusing
  the lowest-numbered free instance (chained operations in the same
  cycle occupy distinct instances, exactly as the scheduler accounted);
* **register binding** — the left-edge algorithm packs value lifetimes
  into the minimum number of registers.

Binding is exact for nonpipelined designs; pipelined designs overlap
iterations and need modulo binding, which the validation scope excludes
(the predictor's own modulo lifetime accounting covers them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.bad.allocation import value_lifetimes
from repro.bad.scheduling import Schedule
from repro.dfg.graph import DataFlowGraph
from repro.errors import PredictionError


@dataclass(frozen=True, slots=True)
class BoundDesign:
    """The result of binding one scheduled partition."""

    #: Operation id -> (resource class, unit index).
    unit_of: Mapping[str, Tuple[str, int]]
    #: Units actually instantiated per class.
    units_used: Mapping[str, int]
    #: Value id -> register index (values with no storage are absent).
    register_of: Mapping[str, int]
    #: Registers actually instantiated.
    register_count: int


def bind_design(
    graph: DataFlowGraph,
    schedule: Schedule,
) -> BoundDesign:
    """Bind a scheduled partition's operations and values.

    Raises :class:`PredictionError` when the schedule's capacities are
    insufficient — which would indicate a scheduler bug, since the
    schedule was verified against the same capacities.
    """
    unit_of = _bind_units(graph, schedule)
    units_used: Dict[str, int] = {}
    for cls, index in unit_of.values():
        units_used[cls] = max(units_used.get(cls, 0), index + 1)
    register_of, register_count = _bind_registers(graph, schedule)
    return BoundDesign(
        unit_of=unit_of,
        units_used=units_used,
        register_of=register_of,
        register_count=register_count,
    )


def _bind_units(
    graph: DataFlowGraph, schedule: Schedule
) -> Dict[str, Tuple[str, int]]:
    """Greedy cycle-order unit binding."""
    # busy_until[cls][index] = first free cycle of that instance.
    busy_until: Dict[str, List[int]] = {
        cls: [0] * capacity
        for cls, capacity in schedule.capacities.items()
    }
    unit_of: Dict[str, Tuple[str, int]] = {}
    by_start = sorted(
        schedule.start, key=lambda o: (schedule.start[o], o)
    )
    for op_id in by_start:
        cls = schedule.resource_class[op_id]
        begin = schedule.start[op_id]
        finish = begin + schedule.duration[op_id]
        instances = busy_until[cls]
        for index, free_at in enumerate(instances):
            if free_at <= begin:
                instances[index] = finish
                unit_of[op_id] = (cls, index)
                break
        else:
            raise PredictionError(
                f"no free {cls!r} instance for {op_id!r} at cycle "
                f"{begin}; the schedule violates its capacities"
            )
    return unit_of


def _bind_registers(
    graph: DataFlowGraph, schedule: Schedule
) -> Tuple[Dict[str, int], int]:
    """Left-edge register binding over value lifetimes."""
    lifetimes = value_lifetimes(graph, schedule)
    ordered = sorted(
        lifetimes.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0])
    )
    register_free_at: List[int] = []
    register_of: Dict[str, int] = {}
    for value_id, (birth, death) in ordered:
        for index, free_at in enumerate(register_free_at):
            if free_at <= birth:
                register_free_at[index] = death
                register_of[value_id] = index
                break
        else:
            register_of[value_id] = len(register_free_at)
            register_free_at.append(death)
    return register_of, len(register_free_at)
