"""Property-based tests for the scheduler on random graphs."""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.bad.allocation import (
    partition_resource_model,
    register_bits,
    register_requirement,
    value_lifetimes,
)
from repro.bad.scheduling import (
    Schedule,
    SchedulePlan,
    list_schedule,
)
from repro.dfg.graph import DataFlowGraph
from repro.errors import ChopError, PredictionError
from tests.strategies import dags
from tests.test_scheduling import critical_path_cycles


@given(dags(), st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_schedule_valid_under_any_allocation(graph, units):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, count) for cls, count in counts.items()}
    schedule = list_schedule(graph, duration, op_class, capacities)
    schedule.verify(graph)  # raises on precedence/resource violations


@given(dags())
@settings(max_examples=50, deadline=None)
def test_latency_bounds(graph):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    schedule = list_schedule(graph, duration, op_class, counts)
    cp = critical_path_cycles(graph, duration)
    assert cp <= schedule.latency <= sum(duration.values())
    # Unconstrained resources: latency equals the critical path.
    assert schedule.latency == cp


@given(dags(), st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_serialization_never_beats_critical_path(graph, units):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, count) for cls, count in counts.items()}
    constrained = list_schedule(graph, duration, op_class, capacities)
    unconstrained = list_schedule(graph, duration, op_class, counts)
    assert constrained.latency >= unconstrained.latency


@given(dags())
@settings(max_examples=40, deadline=None)
def test_chaining_never_increases_latency(graph):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    delays = {op_id: 50.0 for op_id in graph.operations}
    plain = list_schedule(graph, duration, op_class, counts)
    chained = list_schedule(
        graph, duration, op_class, counts,
        delay_ns=delays, cycle_ns=3000.0,
    )
    assert chained.latency <= plain.latency
    chained.verify(graph)


@given(dags(), st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_modulo_usage_conserves_work(graph, ii):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    schedule = list_schedule(graph, duration, op_class, counts)
    usage = schedule.modulo_usage(ii)
    for cls, slots in usage.items():
        assert sum(slots) == counts[cls]


@st.composite
def schedules(draw):
    """A list schedule of a random graph under a random allocation:
    multi-cycle operations, or single-cycle ones chained within a cycle."""
    graph = draw(dags(mixed_widths=True))
    op_class, counts = partition_resource_model(graph)
    capacities = {
        cls: draw(st.integers(min_value=1, max_value=count))
        for cls, count in counts.items()
    }
    if draw(st.booleans()):
        duration = {op_id: 1 for op_id in graph.operations}
        delays = {
            op_id: draw(st.sampled_from([0.0, 40.0, 120.0, 300.0]))
            for op_id in graph.operations
        }
        schedule = list_schedule(
            graph, duration, op_class, capacities,
            delay_ns=delays, cycle_ns=300.0,
        )
    else:
        duration = {
            op_id: draw(st.integers(min_value=1, max_value=4))
            for op_id in graph.operations
        }
        schedule = list_schedule(graph, duration, op_class, capacities)
    return graph, schedule


def naive_usage(schedule, slots):
    """Reference oracle: every busy cycle of every op, one at a time."""
    usage = {cls: [0] * slots for cls in schedule.capacities}
    for op_id, begin in schedule.start.items():
        cls = schedule.resource_class[op_id]
        for cycle in range(begin, begin + schedule.duration[op_id]):
            usage[cls][cycle % slots] += 1
    return usage


def naive_registers(graph, schedule, ii):
    """Reference oracle: every live cycle of every value, one at a time."""
    words = [0] * ii
    bits = [0] * ii
    for value_id, (birth, death) in value_lifetimes(graph, schedule).items():
        for cycle in range(birth, death):
            words[cycle % ii] += 1
            bits[cycle % ii] += graph.value(value_id).width
    return max(words), max(bits)


@given(schedules())
@settings(max_examples=80, deadline=None)
def test_folds_match_per_op_accumulation(drawn):
    graph, schedule = drawn
    latency = max(schedule.latency, 1)
    assert schedule.usage_profile() == naive_usage(schedule, latency)
    for ii in range(1, latency + 3):
        usage = naive_usage(schedule, ii)
        assert schedule.modulo_usage(ii) == usage
        assert schedule.pipeline_capacities(ii) == {
            cls: max(slots) for cls, slots in usage.items()
        }
        assert (
            register_requirement(graph, schedule, ii),
            register_bits(graph, schedule, ii),
        ) == naive_registers(graph, schedule, ii)


@given(schedules())
@settings(max_examples=80, deadline=None)
def test_early_exit_probe_matches_the_full_fold(drawn):
    """The II probe answers at the first oversubscribed class, exactly
    as the fold of every class would; a non-positive interval still
    raises, although the probe no longer folds through
    ``modulo_usage``."""
    _graph, schedule = drawn
    for ii in range(1, max(schedule.latency, 1) + 1):
        needed = schedule.pipeline_capacities(ii)
        assert schedule.pipeline_feasible(ii) == all(
            needed[cls] <= units
            for cls, units in schedule.capacities.items()
        )
    for ii in (0, -2):
        with pytest.raises(PredictionError, match="must be positive"):
            schedule.pipeline_feasible(ii)


@st.composite
def timings(draw):
    """A random graph with the arguments of one scheduling plan:
    multi-cycle operations, or single-cycle ones chained within a cycle,
    with or without per-operation arrival times.  Operations read two to
    four values, so one may read a value twice and another once."""
    graph = draw(dags(max_arity=4))
    op_class, counts = partition_resource_model(graph)
    ops = sorted(graph.operations)
    delays = cycle = None
    if draw(st.booleans()):
        duration = {op_id: 1 for op_id in ops}
        delays = {
            op_id: draw(st.sampled_from([0.0, 40.0, 120.0, 300.0]))
            for op_id in ops
        }
        cycle = 300.0
    else:
        duration = {
            op_id: draw(st.integers(min_value=1, max_value=4))
            for op_id in ops
        }
    ready = None
    if draw(st.booleans()):
        late = draw(st.sets(st.sampled_from(ops)))
        ready = {
            op_id: draw(st.integers(min_value=0, max_value=6))
            for op_id in sorted(late)
        }
    return graph, op_class, counts, duration, delays, cycle, ready


@given(timings(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_plan_places_like_a_fresh_schedule_per_allocation(timing, data):
    """A plan reused over a sequence of capacity vectors must not carry
    state (predecessor counts, ready list, events, occupancy) from one
    placement into the next."""
    graph, op_class, counts, duration, delays, cycle, ready = timing
    vectors = data.draw(st.lists(
        st.fixed_dictionaries({
            cls: st.integers(min_value=1, max_value=count)
            for cls, count in counts.items()
        }),
        min_size=2, max_size=5,
    ))
    plan = SchedulePlan.build(graph, duration, op_class, delays, cycle, ready)
    for capacities in vectors:
        reused = list_schedule(
            graph, duration, op_class, capacities,
            delay_ns=delays, cycle_ns=cycle, ready=ready, plan=plan,
        )
        fresh = list_schedule(
            graph, duration, op_class, capacities,
            delay_ns=delays, cycle_ns=cycle, ready=ready,
        )
        assert reused.start == fresh.start
        assert reused.offset_ns == fresh.offset_ns
        assert reused.occupancy == fresh.occupancy
        assert reused.latency == fresh.latency


def derived_structure(graph):
    """Reference oracle: order, predecessors and successors derived from
    the operations and values alone, with nothing cached."""
    preds, succs = {}, {}
    for op_id, op in graph.operations.items():
        producers = [graph.values[vid].producer for vid in op.inputs]
        preds[op_id] = []
        for producer in producers:
            if producer is not None and producer not in preds[op_id]:
                preds[op_id].append(producer)
        # One entry per input that reads the value: an op reading it
        # twice is a successor twice.
        succs[op_id] = [
            reader.id
            for reader in graph
            for vid in reader.inputs
            if op.output is not None and vid == op.output
        ]
    indegree = {op_id: 0 for op_id in graph.operations}
    for op_id in graph.operations:
        for succ in succs[op_id]:
            indegree[succ] += 1
    ready = sorted(op_id for op_id, n in indegree.items() if n == 0)
    order = []
    while ready:
        op_id = ready.pop(0)
        order.append(op_id)
        fresh = []
        for succ in succs[op_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                fresh.append(succ)
        ready.extend(sorted(fresh))
    return order, preds, succs


@given(dags())
@settings(max_examples=60, deadline=None)
def test_graph_index_matches_a_from_scratch_derivation(graph):
    order, preds, succs = derived_structure(graph)
    handed_out = graph.topological_order()
    assert handed_out == order
    handed_out.reverse()  # a caller's copy, not the cached order
    assert graph.topological_order() == order
    for op_id in graph.operations:
        assert graph.predecessors(op_id) == preds[op_id]
        assert graph.successors(op_id) == succs[op_id]
        assert graph.predecessor_index[op_id] == tuple(preds[op_id])
        assert graph.successor_index[op_id] == tuple(succs[op_id])


# ----------------------------------------------------------------------
# the reference oracle: the list scheduler as a per-pass loop
# ----------------------------------------------------------------------
def reference_list_schedule(
    graph: DataFlowGraph,
    duration: Mapping[str, int],
    resource_class: Mapping[str, str],
    capacities: Mapping[str, int],
    delay_ns: Optional[Mapping[str, float]] = None,
    cycle_ns: Optional[float] = None,
    ready: Optional[Mapping[str, int]] = None,
    plan: Optional[SchedulePlan] = None,
) -> Schedule:
    """The list scheduler as it once was: one ready list in urgency
    order, every pass re-checking each op's occupancy slice.

    Kept verbatim (only the latency is computed inline) as the oracle of
    the class-keyed loop, which must place every operation at the same
    cycle and offset.
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
    urgency = plan.urgency.__getitem__
    remaining_preds = dict(plan.pred_counts)
    ready_list: List[str] = list(plan.initially_ready)
    start: Dict[str, int] = {}
    offset: Dict[str, float] = {}

    def chain_offset_at(op_id: str, time: int) -> Optional[float]:
        if ready and ready.get(op_id, 0) > time:
            return None
        begin = 0.0
        for pred in preds[op_id]:
            if pred not in start:
                return None
            pred_finish = start[pred] + duration[pred]
            if pred_finish <= time:
                continue
            if chaining and start[pred] == time:
                begin = max(begin, offset[pred] + delay_ns[pred])
                continue
            return None
        if chaining:
            if begin + delay_ns[op_id] > cycle_ns + 1e-9:
                return None
        elif begin > 0.0:
            return None
        return begin

    time = 0
    scheduled = 0
    total = len(plan.pred_counts)
    horizon = plan.horizon
    occupancy = {cls: [0] * plan.cycles for cls in capacities}
    events: List[int] = list(plan.events)
    while scheduled < total:
        if time > horizon:
            raise PredictionError(
                "list scheduler failed to converge; inconsistent resources"
            )
        candidates = ready_list
        while candidates:
            readied: List[str] = []
            for op_id in candidates:
                cls = resource_class[op_id]
                units = occupancy[cls]
                end = time + duration[op_id]
                if max(units[time:end]) >= capacities[cls]:
                    continue
                begin_offset = chain_offset_at(op_id, time)
                if begin_offset is None:
                    continue
                start[op_id] = time
                offset[op_id] = begin_offset
                for c in range(time, end):
                    units[c] += 1
                scheduled += 1
                heapq.heappush(events, end)
                for succ in succs[op_id]:
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        readied.append(succ)
            ready_list = [o for o in ready_list if o not in start] + readied
            readied.sort(key=urgency)
            candidates = readied if chaining else []
        ready_list.sort(key=urgency)
        while events and events[0] <= time:
            heapq.heappop(events)
        time = events[0] if events else time + 1

    latency = max(
        (begin + duration[op_id] for op_id, begin in start.items()),
        default=0,
    )
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
    schedule.verify(graph)
    return schedule


def _placement(schedule_fn, *args, **kwargs):
    """A schedule's placement, or the error it raises."""
    try:
        schedule = schedule_fn(*args, **kwargs)
    except ChopError as exc:
        return type(exc), str(exc)
    return (
        schedule.start, schedule.offset_ns, schedule.occupancy,
        schedule.latency,
    )


def capacity_vectors(data, counts):
    """1-5 capacity vectors of up to one unit more than each class's op
    count; now and then one more that leaves a class without units."""
    vectors = data.draw(st.lists(
        st.fixed_dictionaries({
            cls: st.integers(min_value=1, max_value=count + 1)
            for cls, count in counts.items()
        }),
        min_size=1, max_size=5,
    ))
    if data.draw(st.integers(min_value=0, max_value=9)) == 0:
        starved = data.draw(st.sampled_from(sorted(counts)))
        vectors.append({**vectors[0], starved: 0})
    return vectors


@given(timings(), st.data())
@settings(max_examples=300, deadline=None)
def test_class_keyed_loop_places_like_the_per_pass_loop(timing, data):
    graph, op_class, counts, duration, delays, cycle, ready = timing
    plan = SchedulePlan.build(graph, duration, op_class, delays, cycle, ready)
    for capacities in capacity_vectors(data, counts):
        args = (graph, duration, op_class, capacities)
        kwargs = dict(delay_ns=delays, cycle_ns=cycle, ready=ready)
        assert _placement(list_schedule, *args, **kwargs, plan=plan) == (
            _placement(reference_list_schedule, *args, **kwargs)
        )


@given(timings(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_schedule_serves_every_allocation_between_peak_and_capacity(
    timing, data
):
    """The reuse rule: under any C' with peak(C) <= C' <= C an operation
    finds a free unit exactly where it found one under C, so the
    placement is the same; only ``capacities`` differs."""
    graph, op_class, counts, duration, delays, cycle, ready = timing
    kwargs = dict(delay_ns=delays, cycle_ns=cycle, ready=ready)
    capacities = data.draw(st.fixed_dictionaries({
        cls: st.integers(min_value=1, max_value=count + 1)
        for cls, count in counts.items()
    }))
    schedule = list_schedule(graph, duration, op_class, capacities, **kwargs)
    peak = schedule.peak_usage()
    narrower = data.draw(st.fixed_dictionaries({
        cls: st.integers(min_value=peak[cls], max_value=units)
        for cls, units in capacities.items()
    }))
    placed = list_schedule(graph, duration, op_class, narrower, **kwargs)
    assert placed.capacities == narrower
    assert_placed_as_reused(placed, schedule, graph)


def assert_placed_as_reused(placed, schedule, graph):
    """``placed`` (a fresh placement) is ``schedule`` reallocated to its
    capacities: equal in every field but ``capacities``."""
    assert placed == schedule.reallocated(placed.capacities, graph)
    for field_name in Schedule.__dataclass_fields__:
        if field_name != "capacities":
            assert getattr(placed, field_name) == getattr(
                schedule, field_name
            )


@given(timings(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_schedule_serves_every_allocation_its_idle_units_allow(
    timing, data
):
    """The widened reuse rule: a class whose units were all busy at its
    peak keeps its capacity, and any other class may take any capacity
    from its peak up, above C too, because it always had an idle unit
    and so never turned an operation away."""
    graph, op_class, counts, duration, delays, cycle, ready = timing
    kwargs = dict(delay_ns=delays, cycle_ns=cycle, ready=ready)
    capacities = data.draw(st.fixed_dictionaries({
        cls: st.integers(min_value=1, max_value=count + 1)
        for cls, count in counts.items()
    }))
    schedule = list_schedule(graph, duration, op_class, capacities, **kwargs)
    peak = schedule.peak_usage()
    widened = data.draw(st.fixed_dictionaries({
        cls: (
            st.integers(min_value=peak[cls], max_value=counts[cls] + 2)
            if peak[cls] < units
            else st.just(units)
        )
        for cls, units in capacities.items()
    }))
    placed = list_schedule(graph, duration, op_class, widened, **kwargs)
    assert placed.capacities == widened
    assert_placed_as_reused(placed, schedule, graph)
