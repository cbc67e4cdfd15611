"""Focused tests on operation-chaining corner cases.

Chaining is the subtlest part of the scheduling model (DESIGN.md §6);
these tests pin its exact semantics: delay budgets, unit occupancy,
interaction with resource limits, and the register consequences.
"""

from __future__ import annotations

import pytest

from repro.bad.allocation import (
    partition_resource_model,
    register_requirement,
    value_lifetimes,
)
from repro.bad.scheduling import list_schedule
from repro.dfg.builders import GraphBuilder
from repro.dfg.ops import OpType
from repro.errors import PredictionError


def _chain(n, op="add"):
    b = GraphBuilder(f"chain{n}")
    x = b.input("x")
    k = b.input("k")
    v = x
    for _ in range(n):
        v = b.add(v, k) if op == "add" else b.mul(v, k)
    b.output(v)
    return b.build()


def _sched(graph, delays, cycle, capacities=None):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    return list_schedule(
        graph, duration, op_class, capacities or counts,
        delay_ns=delays, cycle_ns=cycle,
    )


class TestDelayBudget:
    def test_exact_fit(self):
        """Three 1000 ns ops exactly fill a 3000 ns cycle."""
        graph = _chain(3)
        delays = {op_id: 1000.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        assert schedule.latency == 1

    def test_one_over_budget_splits(self):
        graph = _chain(3)
        delays = {op_id: 1001.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        assert schedule.latency == 2

    def test_mixed_delays_pack_greedily(self):
        """2950 + 34 fits; the next 2950 starts a new cycle."""
        b = GraphBuilder("mix")
        x = b.input("x")
        k = b.input("k")
        m1 = b.mul(x, k)      # 2950
        a1 = b.add(m1, k)     # 34, chains after m1
        m2 = b.mul(a1, k)     # 2950, next cycle
        a2 = b.add(m2, k)     # 34, chains after m2
        b.output(a2)
        graph = b.build()
        delays = {}
        for op in graph:
            delays[op.id] = 2950.0 if op.op_type.value == "mul" else 34.0
        schedule = _sched(graph, delays, 3000.0)
        assert schedule.latency == 2
        # The adds chained onto their multipliers' cycles.
        starts = {
            op.id: schedule.start[op.id] for op in graph
        }
        muls = sorted(
            o for o in starts if o.startswith("mul")
        )
        adds = sorted(
            o for o in starts if o.startswith("add")
        )
        assert starts[adds[0]] == starts[muls[0]]
        assert starts[adds[1]] == starts[muls[1]]

    def test_offsets_accumulate(self):
        graph = _chain(3)
        delays = {op_id: 500.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        offsets = sorted(schedule.offset_ns.values())
        assert offsets == [0.0, 500.0, 1000.0]


class TestUnitOccupancy:
    def test_chained_ops_need_distinct_units(self):
        """A 4-op chain in one cycle occupies four adders."""
        graph = _chain(4)
        delays = {op_id: 100.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        assert schedule.latency == 1
        assert max(schedule.usage_profile()["add"]) == 4

    def test_single_unit_forbids_chaining(self):
        graph = _chain(4)
        delays = {op_id: 100.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0, {"add": 1})
        assert schedule.latency == 4

    def test_two_units_halve_the_chain(self):
        graph = _chain(4)
        delays = {op_id: 100.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0, {"add": 2})
        assert schedule.latency == 2


class TestReadiness:
    def test_an_operation_waits_for_every_producer(self):
        """``w`` reads ``p`` twice and the end of a three-op chain once.
        It becomes ready only once both producers are placed, and then
        chains behind the chain within the same cycle."""
        b = GraphBuilder("wide")
        x = b.input("x")
        k = b.input("k")
        p = b.add(x, k)
        q = b.add(b.add(b.add(x, k), x), x)
        b.output(b.op(OpType.ADD, p, p, q))
        graph = b.build()
        delays = {op_id: 0.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 300.0)
        assert schedule.latency == 1
        schedule.verify(graph)


class TestRegisterInteraction:
    def test_fully_chained_values_need_no_registers(self):
        graph = _chain(4)
        delays = {op_id: 100.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        lifetimes = value_lifetimes(graph, schedule)
        # Only the final output needs storage.
        assert len(lifetimes) == 1
        assert register_requirement(
            graph, schedule, schedule.latency
        ) == 1

    def test_cycle_boundary_values_are_stored(self):
        graph = _chain(4)
        delays = {op_id: 1600.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)  # one op per cycle
        assert schedule.latency == 4
        lifetimes = value_lifetimes(graph, schedule)
        assert len(lifetimes) == 4  # every intermediate crosses a cycle


class TestValidation:
    def test_chained_raises_for_an_unplaced_operation(self):
        graph = _chain(2)
        delays = {op_id: 100.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        placed = sorted(schedule.start)
        assert schedule.chained(placed[0], placed[1])
        # Neither id was placed; their two missing starts are not one cycle.
        with pytest.raises(KeyError):
            schedule.chained("ghost1", "ghost2")
        with pytest.raises(KeyError):
            schedule.chained(placed[0], "ghost1")

    def test_verify_accepts_chained_schedule(self):
        graph = _chain(5)
        delays = {op_id: 300.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        schedule.verify(graph)  # must not raise

    def test_verify_rejects_tampered_offsets(self):
        graph = _chain(2)
        delays = {op_id: 1000.0 for op_id in graph.operations}
        schedule = _sched(graph, delays, 3000.0)
        if schedule.latency != 1:
            pytest.skip("chain did not fit one cycle")
        # Swap the offsets so the consumer 'settles' before its producer.
        ops = sorted(schedule.offset_ns, key=schedule.offset_ns.get)
        first, second = ops[0], ops[-1]
        schedule.offset_ns[first], schedule.offset_ns[second] = (
            schedule.offset_ns[second], schedule.offset_ns[first],
        )
        with pytest.raises(PredictionError, match="precedence"):
            schedule.verify(graph)
