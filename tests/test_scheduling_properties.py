"""Property-based tests for the scheduler on random graphs."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bad.allocation import (
    partition_resource_model,
    register_bits,
    register_requirement,
    value_lifetimes,
)
from repro.bad.scheduling import (
    SchedulePlan,
    critical_path_cycles,
    list_schedule,
)
from tests.strategies import dags


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


@st.composite
def timings(draw):
    """A random graph with the arguments of one scheduling plan:
    multi-cycle operations, or single-cycle ones chained within a cycle,
    with or without per-operation arrival times."""
    graph = draw(dags())
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
