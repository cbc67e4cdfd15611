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

from repro.core.tasks import TaskGraph, TaskIndex
from repro.errors import InfeasibleError, PredictionError


@dataclass(frozen=True, slots=True)
class TaskSchedule:
    """Start/finish times (main cycles) of every task, plus derived waits.

    Frozen, because the system predictions of one timing key share it.
    """

    start: Dict[str, int]
    finish: Dict[str, int]
    makespan: int
    #: For data tasks: cycles between data-ready and transfer start (the
    #: output-side DTM's wait time W).
    wait: Dict[str, int]
    #: For data tasks: cycles between transfer end and the consuming
    #: process task's start (the input-side DTM's hold time).
    hold: Dict[str, int]


#: A data task's pins, its lanes up to the first chip without a pin
#: capacity, and that chip (reaching it is a :class:`PredictionError`).
#: A lane is a chip's number and its room: the most pins in use in a
#: modulo slot that still leave space for the task.
_Mover = Tuple[int, Tuple[Tuple[int, int], ...], Optional[str]]
#: :func:`pin_table`'s chip count, and each task's mover by task number
#: (``None`` for a process task).
PinTable = Tuple[int, Tuple[Optional[_Mover], ...]]


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
    this rate.  This is :func:`schedule_tasks` on the graph's index
    tables and :func:`pin_table`.
    """
    index = task_graph.index()
    return schedule_tasks(
        index,
        [durations.get(name) for name in index.names],
        pin_table(task_graph, pin_needs, pin_capacity),
        ii_main,
    )


def pin_table(
    task_graph: TaskGraph,
    pin_needs: Mapping[str, int],
    pin_capacity: Mapping[str, int],
) -> PinTable:
    """The data tasks' pins and chip rooms, numbered for
    :func:`schedule_tasks`; a missing pin need is 0."""
    index = task_graph.index()
    chips: Dict[str, int] = {}
    movers: List[Optional[_Mover]] = [None] * len(index.names)
    for task in index.movers:
        name = index.names[task]
        pins = pin_needs.get(name, 0)
        lanes: List[Tuple[int, int]] = []
        uncapped = None
        for chip in task_graph.tasks[name].chips:
            cap = pin_capacity.get(chip)
            if cap is None:
                uncapped = chip
                break
            lanes.append((chips.setdefault(chip, len(chips)), cap - pins))
        movers[task] = (pins, tuple(lanes), uncapped)
    return len(chips), tuple(movers)


def task_urgency(index: TaskIndex, durations: Sequence[int]) -> List[int]:
    """Critical-path-to-sink length of every task (inclusive), by task
    number; the largest is the graph's longest path."""
    urgency = [0] * len(index.names)
    successors = index.successors
    for task in reversed(index.order):
        downstream = 0
        for succ in successors[task]:
            if urgency[succ] > downstream:
                downstream = urgency[succ]
        urgency[task] = durations[task] + downstream
    return urgency


def schedule_tasks(
    index: TaskIndex,
    durations: Sequence[Optional[int]],
    pins: PinTable,
    ii_main: int,
) -> TaskSchedule:
    """The urgency schedule of a task graph given by its index tables.

    ``durations`` holds each task's length by task number (``None``
    where it has none).

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
    names = index.names
    count = len(names)
    chip_count, movers = pins
    usage = [[0] * ii_main for _ in range(chip_count)]
    for task in index.declared:
        duration = durations[task]
        if duration is None:
            raise PredictionError(f"task {names[task]!r} has no duration")
        if duration < 0:
            raise PredictionError(
                f"task {names[task]!r} has negative duration"
            )
        if duration > ii_main and movers[task] is not None:
            raise InfeasibleError(
                f"task {names[task]!r} needs {duration} cycles but the "
                f"initiation interval is {ii_main}; a longer transfer "
                "would cause data clashes"
            )

    # Most urgent first, ties by name, as one int per task (see
    # TaskIndex); the key is fixed per schedule.
    rank = [
        task - urgency * count
        for task, urgency in enumerate(task_urgency(index, durations))
    ]
    remaining = list(index.predecessor_counts)
    data_ready = [0] * count
    begin = [0] * count
    ready = sorted(
        rank[task] for task in range(count) if remaining[task] == 0
    )
    start: Dict[str, int] = {}
    finish: Dict[str, int] = {}
    horizon = sum(durations) + ii_main * max(1, count) + 1

    successors = index.successors
    time = 0
    while True:
        # Every pass but the first tries only the tasks the pass before
        # made ready: the others already failed at this time, and a
        # placement can only take pins away.
        batch: Sequence[int] = tuple(ready)
        while batch:
            fresh: List[int] = []
            for key in batch:
                task = key % count
                if data_ready[task] > time:
                    continue
                duration = durations[task]
                mover = movers[task]
                if mover is not None:
                    need, lanes, uncapped = mover
                    if _blocked(usage, lanes, time, duration, ii_main):
                        continue
                    if uncapped is not None:
                        raise PredictionError(
                            f"no pin capacity for chip {uncapped!r}"
                        )
                    _occupy(usage, lanes, need, time, duration, ii_main)
                begin[task] = time
                name = names[task]
                start[name] = time
                end = finish[name] = time + duration
                ready.remove(key)
                for succ in successors[task]:
                    remaining[succ] -= 1
                    if end > data_ready[succ]:
                        data_ready[succ] = end
                    if remaining[succ] == 0:
                        insort(ready, rank[succ])
                        fresh.append(rank[succ])
            fresh.sort()
            batch = fresh
        if not ready:
            break
        time = _next_event(
            ready, count, time, data_ready, durations, usage, movers, ii_main
        )
        if time is None or time > horizon:
            raise InfeasibleError(
                f"urgency scheduling cannot share the data pins at "
                f"initiation interval {ii_main}; pins are oversubscribed"
            )

    makespan = max(finish.values(), default=0)
    wait: Dict[str, int] = {}
    hold: Dict[str, int] = {}
    for task in index.movers:
        name = names[task]
        wait[name] = begin[task] - data_ready[task]
        # The hold lasts until the last consuming process task starts.
        consumed = -1
        for succ in successors[task]:
            if movers[succ] is None and begin[succ] > consumed:
                consumed = begin[succ]
        hold[name] = consumed - finish[name] if consumed >= 0 else 0
    return TaskSchedule(
        start=start, finish=finish, makespan=makespan, wait=wait, hold=hold
    )


def _next_event(
    ready: List[int],
    count: int,
    time: int,
    data_ready: List[int],
    durations: Sequence[int],
    usage: List[List[int]],
    movers: Sequence[Optional[_Mover]],
    ii_main: int,
) -> Optional[int]:
    """The first time after ``time`` at which some ready task could be
    placed, or ``None`` when every ready task is a transfer whose pins
    fit in no slot of the interval."""
    best: Optional[int] = None
    for key in ready:
        task = key % count
        begin = max(time + 1, data_ready[task])
        if best is not None and begin >= best:
            continue
        mover = movers[task]
        if mover is None:
            best = begin
            continue
        # Pin occupancy repeats every interval, so one interval's worth
        # of start times covers every slot.
        stop = begin + ii_main if best is None else min(begin + ii_main, best)
        duration = durations[task]
        lanes = mover[1]
        for slot in range(begin, stop):
            if not _blocked(usage, lanes, slot, duration, ii_main):
                best = slot
                break
    return best


def _blocked(
    usage: List[List[int]],
    lanes: Tuple[Tuple[int, int], ...],
    begin: int,
    duration: int,
    ii_main: int,
) -> bool:
    """Whether some chip lacks the pins in a cycle of ``[begin, begin +
    duration)``, taken modulo the interval."""
    for chip, room in lanes:
        slots = usage[chip]
        for cycle in range(begin, begin + duration):
            if slots[cycle % ii_main] > room:
                return True
    return False


def _occupy(
    usage: List[List[int]],
    lanes: Tuple[Tuple[int, int], ...],
    pins: int,
    begin: int,
    duration: int,
    ii_main: int,
) -> None:
    for chip, _ in lanes:
        slots = usage[chip]
        for cycle in range(begin, begin + duration):
            slots[cycle % ii_main] += pins
