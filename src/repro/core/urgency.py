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

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.tasks import TaskGraph
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

    Each time point tries the ready tasks pass by pass, most urgent first
    and ties by name.  A pass walks the ready snapshot it started with
    and places every task whose data is ready and whose pins are free; a
    task made ready by a placement waits for the next pass.  When a pass
    places nothing, time jumps to the next event: the earliest data-ready
    time of a waiting task, or the first slot within one initiation
    interval where a blocked transfer's pins fit.  Nothing changes
    between two placements, so no time point in between could place a
    task.  A schedule that would run past the horizon (the sum of all
    durations plus one interval per task) has oversubscribed pins.
    """
    if ii_main <= 0:
        raise PredictionError(
            f"initiation interval must be positive, got {ii_main}"
        )
    usage: Dict[str, List[int]] = {
        chip: [0] * ii_main for chip in pin_capacity
    }
    movers: Dict[str, _Mover] = {}
    for name, task in task_graph.tasks.items():
        if name not in durations:
            raise PredictionError(f"task {name!r} has no duration")
        if durations[name] < 0:
            raise PredictionError(f"task {name!r} has negative duration")
        if task.moves_data:
            if durations[name] > ii_main:
                raise InfeasibleError(
                    f"task {name!r} needs {durations[name]} cycles but the "
                    f"initiation interval is {ii_main}; a longer transfer "
                    "would cause data clashes"
                )
            movers[name] = _mover(
                task.chips, pin_needs.get(name, 0), usage, pin_capacity
            )

    order = task_graph.topological_order()
    urgency = _urgency(task_graph, durations, order)
    # Most urgent first, ties by name; the key is fixed per schedule.
    rank = {name: (-urgency[name], name) for name in order}
    remaining = {
        name: len(task_graph.predecessors(name)) for name in order
    }
    data_ready: Dict[str, int] = {}
    ready = sorted(rank[name] for name in order if remaining[name] == 0)
    start: Dict[str, int] = {}
    finish: Dict[str, int] = {}

    total_duration = sum(durations.values())
    horizon = total_duration + ii_main * max(1, len(order)) + 1

    successors = task_graph.successors
    time = 0
    while True:
        # Every pass but the first tries only the tasks the pass before
        # made ready: the others already failed at this time, and a
        # placement can only take pins away.
        batch: Sequence[Tuple[int, str]] = tuple(ready)
        while batch:
            fresh: List[Tuple[int, str]] = []
            for key in batch:
                name = key[1]
                if data_ready.get(name, 0) > time:
                    continue
                duration = durations[name]
                mover = movers.get(name)
                if mover is not None:
                    pins, lanes, uncapped = mover
                    if _blocked(lanes, time, duration, ii_main):
                        continue
                    if uncapped is not None:
                        raise PredictionError(
                            f"no pin capacity for chip {uncapped!r}"
                        )
                    _occupy(lanes, pins, time, duration, ii_main)
                start[name] = time
                end = finish[name] = time + duration
                ready.remove(key)
                for succ in successors(name):
                    remaining[succ] -= 1
                    if end > data_ready.get(succ, 0):
                        data_ready[succ] = end
                    if remaining[succ] == 0:
                        insort(ready, rank[succ])
                        fresh.append(rank[succ])
            batch = sorted(fresh)
        if not ready:
            break
        time = _next_event(ready, time, data_ready, durations, movers, ii_main)
        if time is None or time > horizon:
            raise InfeasibleError(
                f"urgency scheduling cannot share the data pins at "
                f"initiation interval {ii_main}; pins are oversubscribed"
            )

    makespan = max(finish.values(), default=0)
    wait: Dict[str, int] = {}
    hold: Dict[str, int] = {}
    for name in movers:
        wait[name] = start[name] - data_ready.get(name, 0)
        # The hold lasts until the last consuming process task starts.
        consumed = -1
        for succ in successors(name):
            if succ not in movers and start[succ] > consumed:
                consumed = start[succ]
        hold[name] = consumed - finish[name] if consumed >= 0 else 0
    return TaskSchedule(
        start=start, finish=finish, makespan=makespan, wait=wait, hold=hold
    )


#: One chip's modulo pin slots, and the most pins in use in a slot that
#: still leave room for the task.
_Lane = Tuple[List[int], int]
#: A data task's pins, its lanes up to the first chip without a pin
#: capacity, and that chip (reaching it is a :class:`PredictionError`).
_Mover = Tuple[int, Tuple[_Lane, ...], Optional[str]]


def _mover(
    chips: Tuple[str, ...],
    pins: int,
    usage: Dict[str, List[int]],
    capacity: Mapping[str, int],
) -> _Mover:
    lanes = []
    for chip in chips:
        cap = capacity.get(chip)
        if cap is None:
            return pins, tuple(lanes), chip
        lanes.append((usage[chip], cap - pins))
    return pins, tuple(lanes), None


def _next_event(
    ready: List[Tuple[int, str]],
    time: int,
    data_ready: Mapping[str, int],
    durations: Mapping[str, int],
    movers: Mapping[str, _Mover],
    ii_main: int,
) -> Optional[int]:
    """The first time after ``time`` at which some ready task could be
    placed, or ``None`` when every ready task is a transfer whose pins
    fit in no slot of the interval."""
    best: Optional[int] = None
    for _, name in ready:
        begin = max(time + 1, data_ready.get(name, 0))
        if best is not None and begin >= best:
            continue
        mover = movers.get(name)
        if mover is None:
            best = begin
            continue
        # Pin occupancy repeats every interval, so one interval's worth
        # of start times covers every slot.
        stop = begin + ii_main if best is None else min(begin + ii_main, best)
        duration = durations[name]
        lanes = mover[1]
        for slot in range(begin, stop):
            if not _blocked(lanes, slot, duration, ii_main):
                best = slot
                break
    return best


def _urgency(
    task_graph: TaskGraph,
    durations: Mapping[str, int],
    order: List[str],
) -> Dict[str, int]:
    """Critical-path-to-sink length of every task (inclusive)."""
    urgency: Dict[str, int] = {}
    successors = task_graph.successors
    for name in reversed(order):
        downstream = 0
        for succ in successors(name):
            if urgency[succ] > downstream:
                downstream = urgency[succ]
        urgency[name] = durations[name] + downstream
    return urgency


def _blocked(
    lanes: Tuple[_Lane, ...],
    begin: int,
    duration: int,
    ii_main: int,
) -> bool:
    """Whether some chip lacks the pins in a cycle of ``[begin, begin +
    duration)``; a data task never outlasts the interval, so the window
    wraps around the modulo slots at most once."""
    first = begin % ii_main
    last = first + duration
    for slots, room in lanes:
        if last <= ii_main:
            window = slots[first:last]
        else:
            window = slots[first:] + slots[: last - ii_main]
        if window and max(window) > room:
            return True
    return False


def _occupy(
    lanes: Tuple[_Lane, ...],
    pins: int,
    begin: int,
    duration: int,
    ii_main: int,
) -> None:
    for slots, _ in lanes:
        for cycle in range(begin, begin + duration):
            slots[cycle % ii_main] += pins
