"""Operation scheduling for the predictor.

Implements the classic scheduling toolbox BAD's predictions rest on:
ASAP/ALAP levels, resource-constrained list scheduling with critical-path
urgency, and modulo-resource accounting for pipelined designs with a
chosen initiation interval (the Sehwa-style pipeline model the paper
builds on — Park & Parker 1988, reference [8]).

All times here are in **datapath cycles**; conversion to main-clock cycles
happens in the predictor.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field, replace
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.errors import PredictionError


def asap_schedule(
    graph: DataFlowGraph,
    duration: Mapping[str, int],
    ready: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Earliest start time of each operation, resources unconstrained.

    ``ready`` gives per-operation earliest start times (in cycles), used
    to model inputs with unique arrival times — the classic model assumes
    all inputs available at cycle 0 (paper section 2.3); the extension of
    section 5 relaxes that.
    """
    _check_durations(graph, duration)
    return _asap(
        graph.topological_order(), graph.predecessor_index, duration, ready
    )


def _asap(
    order: Sequence[str],
    preds: Mapping[str, Sequence[str]],
    duration: Mapping[str, int],
    ready: Optional[Mapping[str, int]],
) -> Dict[str, int]:
    start: Dict[str, int] = {}
    for op_id in order:
        earliest = ready.get(op_id, 0) if ready else 0
        if earliest < 0:
            raise PredictionError(
                f"operation {op_id!r} has negative ready time"
            )
        for pred in preds[op_id]:
            earliest = max(earliest, start[pred] + duration[pred])
        start[op_id] = earliest
    return start


def _alap(
    order: Sequence[str],
    succs: Mapping[str, Sequence[str]],
    duration: Mapping[str, int],
    deadline: int,
) -> Dict[str, int]:
    start: Dict[str, int] = {}
    for op_id in reversed(order):
        latest = deadline - duration[op_id]
        for succ in succs[op_id]:
            latest = min(latest, start[succ] - duration[op_id])
        start[op_id] = latest
    return start


def _finish_time(
    start: Mapping[str, int], duration: Mapping[str, int]
) -> int:
    return max(
        (begin + duration[op_id] for op_id, begin in start.items()),
        default=0,
    )


@dataclass(slots=True)
class Schedule:
    """A resource-feasible schedule of one partition's operations.

    ``occupancy`` holds, per resource class, the units busy in each cycle
    ``0 .. max(latency, 1) - 1`` — the table the list scheduler fills
    while placing operations.  Every resource question asked of a
    schedule (the usage profile, steady-state modulo usage, the units a
    pipeline needs) is a fold of it, O(classes x latency), rather than a
    walk over operations and their durations.

    When built with operation chaining (single-cycle style with a long
    datapath cycle), ``offset_ns`` holds each operation's start offset
    within its first cycle; dependent operations may then share a cycle
    as long as their combinational delays fit, which is how a 3-micron
    adder avoids wasting a 3000 ns cycle.
    """

    start: Dict[str, int]
    duration: Dict[str, int]
    resource_class: Dict[str, str]
    capacities: Dict[str, int]
    latency: int
    occupancy: Dict[str, List[int]]
    offset_ns: Dict[str, float] = field(default_factory=dict)
    delay_ns: Dict[str, float] = field(default_factory=dict)

    def finish(self, op_id: str) -> int:
        return self.start[op_id] + self.duration[op_id]

    def chained(self, pred: str, succ: str) -> bool:
        """Whether ``succ`` consumes ``pred`` within the same cycle.

        Raises ``KeyError`` for an operation the schedule never placed,
        as :meth:`finish` does.
        """
        return (
            bool(self.offset_ns)
            and self.start[pred] == self.start[succ]
        )

    def usage_profile(self) -> Dict[str, List[int]]:
        """Per-class unit usage in each cycle of the schedule."""
        return {cls: list(units) for cls, units in self.occupancy.items()}

    def peak_usage(self) -> Dict[str, int]:
        """The most units of each class busy in any one cycle."""
        return {
            cls: max(units, default=0)
            for cls, units in self.occupancy.items()
        }

    def reallocated(
        self, capacities: Mapping[str, int], graph: DataFlowGraph
    ) -> "Schedule":
        """This schedule charged to ``capacities``, verified against them.

        When every class whose units were all busy at its peak keeps its
        capacity, and every other class gets at least its
        :meth:`peak_usage`, this is exactly what :func:`list_schedule`
        places under ``capacities`` (the reuse rule of ``docs/MODEL.md``
        section 4); the caller checks that.
        """
        moved = replace(
            self,
            capacities=dict(capacities),
            occupancy={cls: self.occupancy[cls] for cls in capacities},
        )
        moved.verify(graph)
        return moved

    def verify(self, graph: DataFlowGraph) -> None:
        """Raise :class:`PredictionError` on any violated constraint."""
        self._verify(graph.predecessor_index)

    def _verify(self, preds: Mapping[str, Sequence[str]]) -> None:
        start = self.start
        duration = self.duration
        offset = self.offset_ns
        delay = self.delay_ns
        for op_id, begin in start.items():
            for pred in preds[op_id]:
                pred_start = start[pred]
                if pred_start + duration[pred] <= begin:
                    continue
                # Same-cycle chaining: the successor must start after the
                # predecessor's combinational delay settles.
                if (
                    offset
                    and pred_start == begin
                    and offset[op_id] + 1e-9 >= offset[pred] + delay[pred]
                ):
                    continue
                raise PredictionError(
                    f"precedence violated: {pred} finishes at "
                    f"{pred_start + duration[pred]} but {op_id} starts at "
                    f"{begin}"
                )
        for cls, units in self.occupancy.items():
            peak = max(units, default=0)
            if peak > self.capacities[cls]:
                raise PredictionError(
                    f"resource class {cls!r} oversubscribed: peak {peak} > "
                    f"capacity {self.capacities[cls]}"
                )

    def modulo_usage(self, initiation_interval: int) -> Dict[str, List[int]]:
        """Steady-state usage when a new iteration starts every ``ii`` cycles.

        Slot ``s`` of the result accumulates every cycle congruent to ``s``
        modulo the initiation interval across overlapped iterations — the
        standard pipeline resource model, folded from the occupancy.
        """
        check_interval(initiation_interval)
        return {
            cls: fold(units, initiation_interval)
            for cls, units in self.occupancy.items()
        }

    def pipeline_capacities(
        self, initiation_interval: int
    ) -> Dict[str, int]:
        """Units of each class needed to sustain the initiation interval."""
        return {
            cls: max(slots, default=0)
            for cls, slots in self.modulo_usage(initiation_interval).items()
        }

    def pipeline_feasible(self, initiation_interval: int) -> bool:
        """Whether the allocated capacities sustain the interval.

        Folds one class at a time and answers at the first class the
        interval oversubscribes.
        """
        check_interval(initiation_interval)
        occupancy = self.occupancy
        for cls, units in self.capacities.items():
            if max(fold(occupancy[cls], initiation_interval)) > units:
                return False
        return True


def check_interval(initiation_interval: int) -> None:
    """Raise :class:`PredictionError` unless the interval is positive."""
    if initiation_interval <= 0:
        raise PredictionError(
            f"initiation interval must be positive, got {initiation_interval}"
        )


def fold(per_cycle: Sequence[int], initiation_interval: int) -> List[int]:
    """Fold a per-cycle count modulo the interval: slot ``s`` sums every
    cycle congruent to ``s``, one interval-long chunk at a time."""
    slots = [0] * initiation_interval
    for base in range(0, len(per_cycle), initiation_interval):
        chunk = per_cycle[base : base + initiation_interval]
        slots[: len(chunk)] = list(map(add, slots, chunk))
    return slots


@dataclass(frozen=True, slots=True)
class SchedulePlan:
    """What :func:`list_schedule` derives from a graph and its timing,
    whatever the capacities: built once, placed under many allocations.

    It runs every argument check but the capacity one, and holds the
    predecessor and successor tuples, the ALAP urgency against the
    critical path, each operation's count of inputs from other
    operations, the operations ready at the start, the horizon and the
    arrival events.  A placement
    copies the state it consumes, so one plan serves any number of
    placements.
    """

    duration: Dict[str, int]
    resource_class: Dict[str, str]
    #: Resource classes in order of first use, for the capacity check.
    classes: Tuple[str, ...]
    #: Chaining delays and cycle; both ``None`` when not chaining.
    delay_ns: Optional[Dict[str, float]]
    cycle_ns: Optional[float]
    #: Per-operation earliest start cycles, or ``None`` for none.
    ready: Optional[Dict[str, int]]
    preds: Mapping[str, Tuple[str, ...]]
    succs: Mapping[str, Tuple[str, ...]]
    #: Placement priority: (ALAP start, op id), smaller is more urgent.
    urgency: Dict[str, Tuple[int, str]]
    #: Inputs each operation reads from other operations.
    pred_counts: Dict[str, int]
    initially_ready: Tuple[str, ...]
    #: Latest cycle a placement may start in, and the cycles an
    #: occupancy table must span.
    horizon: int
    cycles: int
    #: Input arrival times past cycle 0, sorted (hence a heap).
    events: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        graph: DataFlowGraph,
        duration: Mapping[str, int],
        resource_class: Mapping[str, str],
        delay_ns: Optional[Mapping[str, float]] = None,
        cycle_ns: Optional[float] = None,
        ready: Optional[Mapping[str, int]] = None,
    ) -> "SchedulePlan":
        """Check the arguments and derive the plan; see
        :func:`list_schedule` for their meaning."""
        _check_durations(graph, duration)
        for op_id in graph.operations:
            if resource_class.get(op_id) is None:
                raise PredictionError(
                    f"operation {op_id!r} has no resource class"
                )
        chaining = delay_ns is not None and cycle_ns is not None
        if chaining:
            assert delay_ns is not None and cycle_ns is not None
            if any(duration[o] != 1 for o in graph.operations):
                raise PredictionError(
                    "chaining requires single-cycle operations"
                )
            for op_id in graph.operations:
                d = delay_ns.get(op_id)
                if d is None or d < 0:
                    raise PredictionError(
                        f"operation {op_id!r} needs a non-negative delay "
                        "for chaining"
                    )
                if d > cycle_ns:
                    raise PredictionError(
                        f"operation {op_id!r} delay {d:g} ns exceeds the "
                        f"{cycle_ns:g} ns cycle; use the multi-cycle style"
                    )

        # One topological sort and the graph's adjacency tuples serve the
        # ASAP/ALAP urgency computation, every placement and its check.
        order = graph.topological_order()
        preds = graph.predecessor_index
        succs = graph.successor_index
        duration = dict(duration)
        ready = dict(ready) if ready else None
        cp = _finish_time(_asap(order, preds, duration, ready), duration)
        alap = _alap(order, succs, duration, cp)
        urgency = {op_id: (alap[op_id], op_id) for op_id in order}
        # A placement counts down once per successor entry, and an
        # operation reading one value twice is its producer's successor
        # twice, so count entries: an operation is ready only once every
        # one of its producers is placed.
        pred_counts = dict.fromkeys(order, 0)
        for op_id in order:
            for succ in succs[op_id]:
                pred_counts[succ] += 1
        # Upper bound on schedule length: every op serialized, after the
        # latest arrival.
        horizon = sum(duration[o] for o in order) + 1
        if ready:
            horizon += max(ready.values(), default=0)
        return cls(
            duration=duration,
            resource_class=dict(resource_class),
            classes=tuple(
                dict.fromkeys(resource_class[o] for o in graph.operations)
            ),
            delay_ns=dict(delay_ns) if chaining else None,
            cycle_ns=cycle_ns if chaining else None,
            ready=ready,
            preds=preds,
            succs=succs,
            urgency=urgency,
            pred_counts=pred_counts,
            initially_ready=tuple(sorted(
                (op_id for op_id, n in pred_counts.items() if n == 0),
                key=urgency.__getitem__,
            )),
            horizon=horizon,
            # No placement starts past the horizon, so no operation runs
            # past horizon + its duration.
            cycles=horizon + max((duration[o] for o in order), default=0),
            events=tuple(sorted(
                {t for t in (ready or {}).values() if t > 0}
            )),
        )


def list_schedule(
    graph: DataFlowGraph,
    duration: Mapping[str, int],
    resource_class: Mapping[str, str],
    capacities: Mapping[str, int],
    delay_ns: Optional[Mapping[str, float]] = None,
    cycle_ns: Optional[float] = None,
    ready: Optional[Mapping[str, int]] = None,
    plan: Optional[SchedulePlan] = None,
) -> Schedule:
    """Resource-constrained list scheduling with critical-path urgency.

    Priority is the ALAP start time against the critical-path deadline
    (smaller = more urgent), the urgency measure the paper attributes to
    Sehwa.  Deterministic: ties break on operation id.

    When ``delay_ns`` and ``cycle_ns`` are given and every duration is one
    cycle (the single-cycle style), dependent operations **chain** within
    a cycle while their combinational delays fit — each chained operation
    still occupies its own unit for the cycle.

    ``ready`` optionally holds per-operation earliest start cycles (input
    arrival times).  ``plan`` is the :class:`SchedulePlan` built from
    these same arguments, for callers that place one timing under many
    capacity vectors; without it one is built here.  Either way the
    capacities are the one argument checked per placement.

    The placement contract: time advances from cycle 0 to each operation
    finish and input arrival.  At each such cycle a first pass tries every
    ready operation, most urgent first; one starts when its class has a
    free unit in every cycle it occupies and each predecessor has
    finished (or, chaining, started this cycle early enough for both
    delays to fit).  With chaining, each further pass tries only the
    operations the previous pass readied.  An operation that does not fit
    waits for the next such cycle: within a cycle units only fill up and
    its predecessors stay where they are.  Placements of one class never
    change whether another class's ready operations fit, so the first
    pass scans class by class, and a class whose units are all busy in
    the current cycle ends its scan there.
    """
    if plan is None:
        plan = SchedulePlan.build(
            graph, duration, resource_class, delay_ns, cycle_ns, ready
        )
    for cls in plan.classes:
        if capacities.get(cls, 0) <= 0:
            raise PredictionError(
                f"resource class {cls!r} has no units allocated"
            )
    duration = plan.duration
    resource_class = plan.resource_class
    delay_ns = plan.delay_ns
    cycle_ns = plan.cycle_ns
    ready = plan.ready
    chaining = delay_ns is not None
    preds = plan.preds
    succs = plan.succs
    urgency = plan.urgency
    remaining_preds = dict(plan.pred_counts)
    # Each class's ready operations as urgency keys, most urgent first.
    waiting: Dict[str, List[Tuple[int, str]]] = {
        cls: [] for cls in plan.classes
    }
    for op_id in plan.initially_ready:
        waiting[resource_class[op_id]].append(urgency[op_id])
    start: Dict[str, int] = {}
    offset: Dict[str, float] = {}
    # Units busy per class and absolute cycle.
    occupancy = {cls: [0] * plan.cycles for cls in capacities}
    # Event-driven time advance: placements can only become possible at
    # operation-finish boundaries (resources free, dependencies settle)
    # or at input arrival times, so the clock jumps between those.
    events: List[int] = list(plan.events)

    def chain_offset_at(op_id: str, time: int) -> Optional[float]:
        """Start offset of ``op_id`` within cycle ``time``, or None if its
        arrival or a predecessor (all placed) blocks this cycle."""
        if ready and ready.get(op_id, 0) > time:
            return None
        begin = 0.0
        for pred in preds[op_id]:
            pred_start = start[pred]
            if pred_start + duration[pred] <= time:
                continue
            if not chaining or pred_start != time:
                return None
            begin = max(begin, offset[pred] + delay_ns[pred])
        if chaining and begin + delay_ns[op_id] > cycle_ns + 1e-9:
            return None
        return begin

    def place(
        op_id: str, time: int, begin: float, readied: List[str]
    ) -> None:
        """Start ``op_id`` at ``time`` and note the successors it readies."""
        start[op_id] = time
        offset[op_id] = begin
        end = time + duration[op_id]
        units = occupancy[resource_class[op_id]]
        for c in range(time, end):
            units[c] += 1
        heapq.heappush(events, end)
        for succ in succs[op_id]:
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                readied.append(succ)

    time = 0
    total = len(plan.pred_counts)
    horizon = plan.horizon
    # One slot decides whether a class has a unit for an op of any
    # duration: every op placed so far started at or before ``time`` and
    # occupies a contiguous run of cycles, so from ``time`` on a class's
    # occupancy never rises.
    while len(start) < total:
        if time > horizon:
            raise PredictionError(
                "list scheduler failed to converge; inconsistent resources"
            )
        readied: List[str] = []
        for cls, keys in waiting.items():
            units = occupancy[cls]
            cap = capacities[cls]
            if not keys or units[time] >= cap:
                continue
            kept: List[Tuple[int, str]] = []
            for index, key in enumerate(keys):
                if units[time] >= cap:
                    # Full in this cycle, which every op of it occupies.
                    kept += keys[index:]
                    break
                op_id = key[1]
                begin = chain_offset_at(op_id, time)
                if begin is None:
                    kept.append(key)
                else:
                    place(op_id, time, begin, readied)
            waiting[cls] = kept
        while chaining and readied:
            # Ops readied this cycle start in it only by chaining, tried
            # in a further pass.
            readied.sort(key=urgency.__getitem__)
            candidates, readied = readied, []
            for op_id in candidates:
                cls = resource_class[op_id]
                begin = (
                    chain_offset_at(op_id, time)
                    if occupancy[cls][time] < capacities[cls]
                    else None
                )
                if begin is None:
                    insort(waiting[cls], urgency[op_id])
                else:
                    place(op_id, time, begin, readied)
        for op_id in readied:
            insort(waiting[resource_class[op_id]], urgency[op_id])
        while events and events[0] <= time:
            heapq.heappop(events)
        time = events[0] if events else time + 1

    latency = _finish_time(start, duration)
    schedule = Schedule(
        start=start,
        duration=dict(duration),
        resource_class=dict(resource_class),
        capacities=dict(capacities),
        latency=latency,
        occupancy={
            cls: units[: max(latency, 1)]
            for cls, units in occupancy.items()
        },
        offset_ns=offset if chaining else {},
        delay_ns=dict(delay_ns) if chaining else {},
    )
    schedule._verify(preds)
    return schedule


def _check_durations(
    graph: DataFlowGraph, duration: Mapping[str, int]
) -> None:
    for op_id in graph.operations:
        d = duration.get(op_id)
        if d is None:
            raise PredictionError(f"operation {op_id!r} has no duration")
        if d <= 0:
            raise PredictionError(
                f"operation {op_id!r} has non-positive duration {d}"
            )
