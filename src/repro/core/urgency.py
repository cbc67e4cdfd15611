"""Urgency scheduling of tasks over shared chip pins.

"Having delays of all tasks (data transfer tasks and partitions), an
urgency scheduling is performed to confirm feasibility of sharing the
data pins of chips as well as to keep memory accesses to each memory
block feasible while reaching the minimum overall system delay.  The
urgency measure is based on the actual critical path delays of tasks"
(section 2.5).

The overall process is pipelined with initiation interval ``l`` (main
cycles), so pin occupancy is accounted **modulo l**: a transfer from one
iteration shares the window with transfers of neighbouring iterations.
The hard rule "the data transfer time ... cannot be longer than the
initiation interval" is enforced before scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.tasks import TaskGraph, TaskKind
from repro.errors import InfeasibleError, PredictionError


@dataclass(slots=True)
class TaskSchedule:
    """Start/finish times (main cycles) of every task, plus derived waits."""

    start: Dict[str, int]
    finish: Dict[str, int]
    makespan: int
    #: For data tasks: cycles between data-ready and transfer start (the
    #: output-side DTM's wait time W).
    wait: Dict[str, int]
    #: For data tasks: cycles between transfer end and the consuming
    #: process task's start (the input-side DTM's hold time).
    hold: Dict[str, int]


def urgency_schedule(
    task_graph: TaskGraph,
    durations: Mapping[str, int],
    pin_needs: Mapping[str, int],
    pin_capacity: Mapping[str, int],
    ii_main: int,
) -> TaskSchedule:
    """Schedule all tasks, sharing data pins modulo the initiation interval.

    ``durations`` maps every task to its length in main cycles;
    ``pin_needs`` gives the pins a data task occupies on each of its
    chips; ``pin_capacity`` the shareable data pins per chip (after
    memory I/O).  Raises :class:`InfeasibleError` when a transfer exceeds
    the initiation interval (data clash) or the pins cannot be shared at
    this rate.
    """
    if ii_main <= 0:
        raise PredictionError(
            f"initiation interval must be positive, got {ii_main}"
        )
    for name, task in task_graph.tasks.items():
        if name not in durations:
            raise PredictionError(f"task {name!r} has no duration")
        if durations[name] < 0:
            raise PredictionError(f"task {name!r} has negative duration")
        if task.moves_data and durations[name] > ii_main:
            raise InfeasibleError(
                f"task {name!r} needs {durations[name]} cycles but the "
                f"initiation interval is {ii_main}; a longer transfer "
                "would cause data clashes"
            )

    order = task_graph.topological_order()
    urgency = _urgency(task_graph, durations, order)
    # Most urgent first, ties by name; the key is fixed per schedule.
    rank = {name: (-urgency[name], name) for name in order}
    remaining = {
        name: len(task_graph.predecessors(name)) for name in order
    }
    data_ready: Dict[str, int] = {}
    ready: List[str] = [n for n in order if remaining[n] == 0]
    # Pin occupancy per chip per modulo slot.
    usage: Dict[str, List[int]] = {
        chip: [0] * ii_main for chip in pin_capacity
    }
    start: Dict[str, int] = {}
    finish: Dict[str, int] = {}

    total_duration = sum(durations.values())
    horizon = total_duration + ii_main * max(1, len(order)) + 1

    time = 0
    scheduled = 0
    while scheduled < len(order):
        if time > horizon:
            raise InfeasibleError(
                f"urgency scheduling cannot share the data pins at "
                f"initiation interval {ii_main}; pins are oversubscribed"
            )
        ready.sort(key=rank.__getitem__)
        placed = True
        while placed:
            placed = False
            for name in list(ready):
                if data_ready.get(name, 0) > time:
                    continue
                task = task_graph.tasks[name]
                if task.moves_data and not _pins_free(
                    task.chips, pin_needs.get(name, 0), usage,
                    pin_capacity, time, durations[name], ii_main,
                ):
                    continue
                start[name] = time
                finish[name] = time + durations[name]
                if task.moves_data:
                    _occupy(
                        task.chips, pin_needs.get(name, 0), usage,
                        time, durations[name], ii_main,
                    )
                ready.remove(name)
                scheduled += 1
                placed = True
                for succ in task_graph.successors(name):
                    remaining[succ] -= 1
                    data_ready[succ] = max(
                        data_ready.get(succ, 0), finish[name]
                    )
                    if remaining[succ] == 0:
                        ready.append(succ)
                ready.sort(key=rank.__getitem__)
        time += 1

    makespan = max(finish.values(), default=0)
    wait: Dict[str, int] = {}
    hold: Dict[str, int] = {}
    for name, task in task_graph.tasks.items():
        if not task.moves_data:
            continue
        wait[name] = start[name] - data_ready.get(name, 0)
        consumers = [
            s
            for s in task_graph.successors(name)
            if task_graph.tasks[s].kind is TaskKind.PROCESS
        ]
        if consumers:
            hold[name] = max(start[c] for c in consumers) - finish[name]
        else:
            hold[name] = 0
    return TaskSchedule(
        start=start, finish=finish, makespan=makespan, wait=wait, hold=hold
    )


def _urgency(
    task_graph: TaskGraph,
    durations: Mapping[str, int],
    order: List[str],
) -> Dict[str, int]:
    """Critical-path-to-sink length of every task (inclusive)."""
    urgency: Dict[str, int] = {}
    for name in reversed(order):
        downstream = max(
            (urgency[s] for s in task_graph.successors(name)), default=0
        )
        urgency[name] = durations[name] + downstream
    return urgency


def _pins_free(
    chips: Tuple[str, ...],
    pins: int,
    usage: Dict[str, List[int]],
    capacity: Mapping[str, int],
    begin: int,
    duration: int,
    ii_main: int,
) -> bool:
    for chip in chips:
        cap = capacity.get(chip)
        if cap is None:
            raise PredictionError(f"no pin capacity for chip {chip!r}")
        slots = usage[chip]
        for cycle in range(begin, begin + duration):
            if slots[cycle % ii_main] + pins > cap:
                return False
    return True


def _occupy(
    chips: Tuple[str, ...],
    pins: int,
    usage: Dict[str, List[int]],
    begin: int,
    duration: int,
    ii_main: int,
) -> None:
    for chip in chips:
        slots = usage[chip]
        for cycle in range(begin, begin + duration):
            slots[cycle % ii_main] += pins
