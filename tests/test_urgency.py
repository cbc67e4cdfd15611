"""Tests for urgency scheduling of tasks over shared pins."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import urgency
from repro.core.tasks import TaskGraph, TaskKind, TransferTask
from repro.core.urgency import TaskSchedule, urgency_schedule
from repro.errors import ChopError, InfeasibleError, PredictionError


def _pu(name, partition):
    return TransferTask(
        name=name, kind=TaskKind.PROCESS, bits=0, chips=(),
        partition=partition,
    )


def _xfer(name, bits, chips):
    return TransferTask(
        name=name, kind=TaskKind.TRANSFER, bits=bits, chips=chips,
        partition=None,
    )


def _io(name, kind, bits, chip):
    return TransferTask(
        name=name, kind=kind, bits=bits, chips=(chip,), partition=None
    )


@pytest.fixture
def linear_graph():
    """in -> pu:A -> xfer -> pu:B -> out across two chips."""
    tasks = {
        "in:A": _io("in:A", TaskKind.INPUT, 64, "chip1"),
        "pu:A": _pu("pu:A", "A"),
        "xfer:A->B": _xfer("xfer:A->B", 64, ("chip1", "chip2")),
        "pu:B": _pu("pu:B", "B"),
        "out:B": _io("out:B", TaskKind.OUTPUT, 32, "chip2"),
    }
    edges = [
        ("in:A", "pu:A"),
        ("pu:A", "xfer:A->B"),
        ("xfer:A->B", "pu:B"),
        ("pu:B", "out:B"),
    ]
    return TaskGraph(tasks, edges, {"chip1": 0, "chip2": 0})


class TestBasicScheduling:
    def test_chain_makespan(self, linear_graph):
        durations = {"in:A": 2, "pu:A": 10, "xfer:A->B": 2, "pu:B": 8,
                     "out:B": 1}
        pins = {"in:A": 32, "xfer:A->B": 32, "out:B": 32}
        schedule = urgency_schedule(
            linear_graph, durations, pins,
            {"chip1": 64, "chip2": 64}, ii_main=30,
        )
        assert schedule.makespan == 23
        assert schedule.start["in:A"] == 0
        assert schedule.finish["out:B"] == 23

    def test_precedence_respected(self, linear_graph):
        durations = {"in:A": 2, "pu:A": 10, "xfer:A->B": 2, "pu:B": 8,
                     "out:B": 1}
        pins = {"in:A": 32, "xfer:A->B": 32, "out:B": 32}
        schedule = urgency_schedule(
            linear_graph, durations, pins,
            {"chip1": 64, "chip2": 64}, ii_main=30,
        )
        for src, dst in linear_graph.edges:
            assert schedule.finish[src] <= schedule.start[dst]

    def test_schedule_is_frozen(self, linear_graph):
        durations = dict.fromkeys(linear_graph.tasks, 1)
        schedule = urgency_schedule(
            linear_graph, durations, {}, {"chip1": 8, "chip2": 8},
            ii_main=4,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.makespan = 0

    def test_waits_zero_in_unconstrained_chain(self, linear_graph):
        durations = {"in:A": 2, "pu:A": 10, "xfer:A->B": 2, "pu:B": 8,
                     "out:B": 1}
        pins = {"in:A": 1, "xfer:A->B": 1, "out:B": 1}
        schedule = urgency_schedule(
            linear_graph, durations, pins,
            {"chip1": 64, "chip2": 64}, ii_main=30,
        )
        assert schedule.wait["xfer:A->B"] == 0
        assert schedule.hold["xfer:A->B"] == 0


class TestPinContention:
    @pytest.fixture
    def contended_graph(self):
        """Two transfers out of the same chip competing for pins."""
        tasks = {
            "pu:A": _pu("pu:A", "A"),
            "xfer:A->B": _xfer("xfer:A->B", 64, ("chip1", "chip2")),
            "xfer:A->C": _xfer("xfer:A->C", 64, ("chip1", "chip3")),
            "pu:B": _pu("pu:B", "B"),
            "pu:C": _pu("pu:C", "C"),
        }
        edges = [
            ("pu:A", "xfer:A->B"),
            ("pu:A", "xfer:A->C"),
            ("xfer:A->B", "pu:B"),
            ("xfer:A->C", "pu:C"),
        ]
        return TaskGraph(
            tasks, edges, {"chip1": 0, "chip2": 0, "chip3": 0}
        )

    def test_contention_serializes_transfers(self, contended_graph):
        durations = {"pu:A": 4, "xfer:A->B": 3, "xfer:A->C": 3,
                     "pu:B": 4, "pu:C": 4}
        pins = {"xfer:A->B": 40, "xfer:A->C": 40}
        schedule = urgency_schedule(
            contended_graph, durations, pins,
            {"chip1": 60, "chip2": 60, "chip3": 60}, ii_main=20,
        )
        # Both transfers need 40 of chip1's 60 pins: they cannot overlap.
        b, c = schedule.start["xfer:A->B"], schedule.start["xfer:A->C"]
        assert abs(b - c) >= 3
        # The later one waited.
        assert max(
            schedule.wait["xfer:A->B"], schedule.wait["xfer:A->C"]
        ) >= 3

    def test_enough_pins_allows_overlap(self, contended_graph):
        durations = {"pu:A": 4, "xfer:A->B": 3, "xfer:A->C": 3,
                     "pu:B": 4, "pu:C": 4}
        pins = {"xfer:A->B": 20, "xfer:A->C": 20}
        schedule = urgency_schedule(
            contended_graph, durations, pins,
            {"chip1": 60, "chip2": 60, "chip3": 60}, ii_main=20,
        )
        assert schedule.start["xfer:A->B"] == schedule.start["xfer:A->C"]

    def test_modulo_occupancy_with_tight_interval(self, contended_graph):
        # With ii=6 and two 3-cycle transfers each needing all pins,
        # the modulo window is exactly full -> still schedulable.
        durations = {"pu:A": 4, "xfer:A->B": 3, "xfer:A->C": 3,
                     "pu:B": 4, "pu:C": 4}
        pins = {"xfer:A->B": 60, "xfer:A->C": 60}
        schedule = urgency_schedule(
            contended_graph, durations, pins,
            {"chip1": 60, "chip2": 60, "chip3": 60}, ii_main=6,
        )
        assert schedule.makespan >= 10

    def test_oversubscribed_interval_infeasible(self, contended_graph):
        # ii=5 cannot hold 2 x 3 cycles of full-pin transfers.
        durations = {"pu:A": 4, "xfer:A->B": 3, "xfer:A->C": 3,
                     "pu:B": 4, "pu:C": 4}
        pins = {"xfer:A->B": 60, "xfer:A->C": 60}
        with pytest.raises(InfeasibleError, match="oversubscribed"):
            urgency_schedule(
                contended_graph, durations, pins,
                {"chip1": 60, "chip2": 60, "chip3": 60}, ii_main=5,
            )


class TestHardRules:
    def test_transfer_longer_than_interval_rejected(self, linear_graph):
        durations = {"in:A": 2, "pu:A": 10, "xfer:A->B": 31, "pu:B": 8,
                     "out:B": 1}
        pins = {"in:A": 1, "xfer:A->B": 1, "out:B": 1}
        with pytest.raises(InfeasibleError, match="data clash"):
            urgency_schedule(
                linear_graph, durations, pins,
                {"chip1": 64, "chip2": 64}, ii_main=30,
            )

    def test_process_task_may_exceed_interval(self, linear_graph):
        # A pipelined PU with latency above the interval is fine.
        durations = {"in:A": 2, "pu:A": 50, "xfer:A->B": 2, "pu:B": 8,
                     "out:B": 1}
        pins = {"in:A": 1, "xfer:A->B": 1, "out:B": 1}
        schedule = urgency_schedule(
            linear_graph, durations, pins,
            {"chip1": 64, "chip2": 64}, ii_main=30,
        )
        assert schedule.makespan == 63

    def test_bad_interval_rejected(self, linear_graph):
        with pytest.raises(PredictionError):
            urgency_schedule(linear_graph, {}, {}, {}, ii_main=0)

    def test_missing_duration_rejected(self, linear_graph):
        with pytest.raises(PredictionError):
            urgency_schedule(
                linear_graph, {"pu:A": 1}, {}, {"chip1": 64, "chip2": 64},
                ii_main=10,
            )


class TestUrgencyOrdering:
    def test_critical_chain_scheduled_first(self):
        """Two transfers compete; the one feeding the longer chain wins."""
        tasks = {
            "pu:A": _pu("pu:A", "A"),
            "xfer:A->B": _xfer("xfer:A->B", 64, ("chip1", "chip2")),
            "xfer:A->C": _xfer("xfer:A->C", 64, ("chip1", "chip3")),
            "pu:B": _pu("pu:B", "B"),      # long downstream work
            "pu:C": _pu("pu:C", "C"),      # short downstream work
        }
        edges = [
            ("pu:A", "xfer:A->B"),
            ("pu:A", "xfer:A->C"),
            ("xfer:A->B", "pu:B"),
            ("xfer:A->C", "pu:C"),
        ]
        tg = TaskGraph(tasks, edges, {})
        durations = {"pu:A": 2, "xfer:A->B": 3, "xfer:A->C": 3,
                     "pu:B": 30, "pu:C": 2}
        pins = {"xfer:A->B": 50, "xfer:A->C": 50}
        schedule = urgency_schedule(
            tg, durations, pins,
            {"chip1": 60, "chip2": 60, "chip3": 60}, ii_main=20,
        )
        # The urgent (long-chain) transfer goes first.
        assert schedule.start["xfer:A->B"] < schedule.start["xfer:A->C"]


# ----------------------------------------------------------------------
# the reference oracle: the scheduler as a per-cycle loop
# ----------------------------------------------------------------------
def reference_schedule(
    task_graph: TaskGraph,
    durations: Mapping[str, int],
    pin_needs: Mapping[str, int],
    pin_capacity: Mapping[str, int],
    ii_main: int,
) -> TaskSchedule:
    """The urgency scheduler as it once was: one main cycle per step.

    Kept verbatim as the oracle of the event-driven scheduler, which must
    place every task at the same time in the same order.
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
    urgency = _reference_urgency(task_graph, durations, order)
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
                if task.moves_data and not _reference_pins_free(
                    task.chips, pin_needs.get(name, 0), usage,
                    pin_capacity, time, durations[name], ii_main,
                ):
                    continue
                start[name] = time
                finish[name] = time + durations[name]
                if task.moves_data:
                    _reference_occupy(
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


def _reference_urgency(
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


def _reference_pins_free(
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


def _reference_occupy(
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


def _outcome(schedule_fn, *args):
    """A schedule's fields in placement order, or the error it raises."""
    try:
        schedule = schedule_fn(*args)
    except ChopError as exc:
        return type(exc), str(exc)
    return (
        list(schedule.start.items()), list(schedule.finish.items()),
        list(schedule.wait.items()), list(schedule.hold.items()),
        schedule.makespan,
    )


@st.composite
def scheduling_problems(draw):
    """A random task graph shaped like :func:`build_task_graph`'s, with
    random durations, pin needs, capacities and interval.

    Partitions ``P0..Pn`` on 2-4 chips depend only on lower-numbered
    ones, so the graph is acyclic; a dependency across chips goes through
    a transfer task, one on the same chip is a direct edge.  A data task
    mostly needs at least half its chips' pins for at most half the
    interval, so data tasks sharing a chip contend and wait; now and then
    one outlasts the interval (a data clash) or needs more pins than a
    chip has, or a chip has no capacity.
    """
    chips = [f"chip{i}" for i in range(draw(st.integers(2, 4)))]
    count = draw(st.integers(2, 5))
    chip_of = [draw(st.sampled_from(chips)) for _ in range(count)]
    ii_main = draw(st.integers(1, 12))
    tasks: Dict[str, TransferTask] = {}
    edges: List[Tuple[str, str]] = []
    for index in range(count):
        tasks[f"pu:P{index}"] = _pu(f"pu:P{index}", f"P{index}")
        if draw(st.booleans()):
            name = f"in:P{index}"
            tasks[name] = _io(name, TaskKind.INPUT, 8, chip_of[index])
            edges.append((name, f"pu:P{index}"))
        if draw(st.booleans()):
            name = f"out:P{index}"
            tasks[name] = _io(name, TaskKind.OUTPUT, 8, chip_of[index])
            edges.append((f"pu:P{index}", name))
        for src in range(index):
            if not draw(st.integers(0, 2)):
                continue
            if chip_of[src] == chip_of[index]:
                edges.append((f"pu:P{src}", f"pu:P{index}"))
                continue
            name = f"xfer:P{src}->P{index}"
            tasks[name] = _xfer(name, 8, (chip_of[src], chip_of[index]))
            edges.append((f"pu:P{src}", name))
            edges.append((name, f"pu:P{index}"))
    capacity = {
        chip: draw(st.integers(1, 12))
        for chip in chips
        if draw(st.integers(0, 19))
    }
    durations = {}
    pin_needs = {}
    for name, task in tasks.items():
        if not task.moves_data:
            durations[name] = draw(st.integers(0, 12))
            continue
        rare = draw(st.integers(0, 79))
        durations[name] = (
            ii_main + 1 if rare == 0 else draw(st.integers(0, ii_main // 2))
        )
        room = min(capacity.get(chip, 12) for chip in task.chips)
        pin_needs[name] = room + 1 if rare == 1 else draw(
            st.integers(room // 2, room)
        )
    graph = TaskGraph(tasks, edges, {chip: 0 for chip in chips})
    return graph, durations, pin_needs, capacity, ii_main


class TestEventDrivenMatchesPerCycleLoop:
    @given(scheduling_problems())
    @settings(max_examples=400, deadline=None)
    def test_same_schedule_or_same_error(self, problem):
        assert _outcome(urgency_schedule, *problem) == _outcome(
            reference_schedule, *problem
        )

    def test_zero_duration_successors_start_in_a_later_pass(
        self, linear_graph
    ):
        # Every task takes no time, so each is placed at time 0, one
        # pass after its predecessor.
        durations = dict.fromkeys(linear_graph.tasks, 0)
        pins = {"in:A": 8, "xfer:A->B": 8, "out:B": 8}
        args = (linear_graph, durations, pins, {"chip1": 8, "chip2": 8}, 4)
        schedule = urgency_schedule(*args)
        assert list(schedule.start.items()) == [
            ("in:A", 0), ("pu:A", 0), ("xfer:A->B", 0), ("pu:B", 0),
            ("out:B", 0),
        ]
        assert schedule.makespan == 0
        assert _outcome(urgency_schedule, *args) == _outcome(
            reference_schedule, *args
        )

    def test_transfer_that_never_fits_raises_without_stepping(
        self, linear_graph, monkeypatch
    ):
        # 16 pins on a 12-pin chip fit in no slot.  A long process task
        # puts the horizon past 10**9 cycles; the scheduler must raise
        # after looking at one interval of slots, not step to it.
        durations = {"in:A": 1, "pu:A": 10**9, "xfer:A->B": 2,
                     "pu:B": 3, "out:B": 1}
        pins = {"in:A": 4, "xfer:A->B": 16, "out:B": 4}
        checks = []
        blocked = urgency._blocked

        def counted(*args):
            checks.append(args)
            return blocked(*args)

        monkeypatch.setattr(urgency, "_blocked", counted)
        with pytest.raises(InfeasibleError, match="oversubscribed"):
            urgency_schedule(
                linear_graph, durations, pins,
                {"chip1": 12, "chip2": 12}, ii_main=5,
            )
        assert len(checks) <= 10
