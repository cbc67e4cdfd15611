"""Tests for the scheduling engine."""

from __future__ import annotations

import pytest

from repro.bad.allocation import partition_resource_model
from repro.bad.scheduling import (
    _alap,
    _finish_time,
    asap_schedule,
    list_schedule,
)
from repro.errors import PredictionError


def _unit_durations(graph):
    return {op_id: 1 for op_id in graph.operations}


def critical_path_cycles(graph, duration, ready=None):
    """Unconstrained latency: the longest duration-weighted path."""
    return _finish_time(asap_schedule(graph, duration, ready), duration)


def alap_schedule(graph, duration, deadline):
    """Latest start times meeting ``deadline``."""
    return _alap(
        graph.topological_order(), graph.successor_index, duration, deadline
    )


class TestAsapAlap:
    def test_asap_chain(self, chain_graph):
        start = asap_schedule(chain_graph, _unit_durations(chain_graph))
        assert sorted(start.values()) == [0, 1, 2, 3]

    def test_critical_path(self, chain_graph, ar_graph):
        assert critical_path_cycles(
            chain_graph, _unit_durations(chain_graph)
        ) == 4
        assert critical_path_cycles(
            ar_graph, _unit_durations(ar_graph)
        ) == 10

    def test_alap_meets_deadline(self, ar_graph):
        duration = _unit_durations(ar_graph)
        cp = critical_path_cycles(ar_graph, duration)
        alap = alap_schedule(ar_graph, duration, cp + 5)
        for op_id, begin in alap.items():
            assert begin + duration[op_id] <= cp + 5

    def test_alap_at_critical_path_pins_critical_ops(self, chain_graph):
        duration = _unit_durations(chain_graph)
        asap = asap_schedule(chain_graph, duration)
        alap = alap_schedule(chain_graph, duration, 4)
        assert asap == alap  # a pure chain has no slack

    def test_weighted_durations(self, tiny_graph):
        # mul takes 10 cycles, add 1 -> critical path is 11.
        duration = {}
        for op in tiny_graph:
            duration[op.id] = 10 if op.op_type.value == "mul" else 1
        assert critical_path_cycles(tiny_graph, duration) == 11

    def test_missing_duration_raises(self, tiny_graph):
        with pytest.raises(PredictionError):
            asap_schedule(tiny_graph, {})

    def test_non_positive_duration_raises(self, tiny_graph):
        bad = {op.id: 0 for op in tiny_graph}
        with pytest.raises(PredictionError):
            asap_schedule(tiny_graph, bad)


class TestListSchedule:
    def test_unconstrained_matches_critical_path(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, counts = partition_resource_model(ar_graph)
        schedule = list_schedule(ar_graph, duration, op_class, counts)
        assert schedule.latency == critical_path_cycles(ar_graph, duration)

    def test_serial_resources_serialize(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, _ = partition_resource_model(ar_graph)
        schedule = list_schedule(
            ar_graph, duration, op_class, {"add": 1, "mul": 1}
        )
        # 16 muls on one unit need at least 16 cycles.
        assert schedule.latency >= 16
        schedule.verify(ar_graph)

    def test_resource_capacity_respected(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, _ = partition_resource_model(ar_graph)
        schedule = list_schedule(
            ar_graph, duration, op_class, {"add": 2, "mul": 3}
        )
        for cls, usage in schedule.usage_profile().items():
            assert max(usage) <= schedule.capacities[cls]

    def test_zero_capacity_rejected(self, tiny_graph):
        op_class, _ = partition_resource_model(tiny_graph)
        with pytest.raises(PredictionError):
            list_schedule(
                tiny_graph, _unit_durations(tiny_graph), op_class,
                {"add": 1, "mul": 0},
            )

    def test_multi_cycle_operations(self, tiny_graph):
        duration = {}
        for op in tiny_graph:
            duration[op.id] = 10 if op.op_type.value == "mul" else 1
        op_class, counts = partition_resource_model(tiny_graph)
        schedule = list_schedule(tiny_graph, duration, op_class, counts)
        assert schedule.latency == 11
        schedule.verify(tiny_graph)


class TestChaining:
    def test_whole_chain_fits_one_cycle(self, chain_graph):
        duration = _unit_durations(chain_graph)
        op_class, counts = partition_resource_model(chain_graph)
        delays = {op.id: 34.0 for op in chain_graph}
        schedule = list_schedule(
            chain_graph, duration, op_class, counts,
            delay_ns=delays, cycle_ns=3000.0,
        )
        assert schedule.latency == 1
        schedule.verify(chain_graph)

    def test_chain_splits_when_delays_overflow(self, chain_graph):
        duration = _unit_durations(chain_graph)
        op_class, counts = partition_resource_model(chain_graph)
        delays = {op.id: 1600.0 for op in chain_graph}
        schedule = list_schedule(
            chain_graph, duration, op_class, counts,
            delay_ns=delays, cycle_ns=3000.0,
        )
        # Only one 1600 ns op fits per 3000 ns cycle.
        assert schedule.latency == 4

    def test_two_per_cycle(self, chain_graph):
        duration = _unit_durations(chain_graph)
        op_class, counts = partition_resource_model(chain_graph)
        delays = {op.id: 1400.0 for op in chain_graph}
        schedule = list_schedule(
            chain_graph, duration, op_class, counts,
            delay_ns=delays, cycle_ns=3000.0,
        )
        assert schedule.latency == 2

    def test_chained_ops_still_occupy_units(self, chain_graph):
        duration = _unit_durations(chain_graph)
        op_class, _ = partition_resource_model(chain_graph)
        delays = {op.id: 34.0 for op in chain_graph}
        # With a single adder the chain cannot share a cycle.
        schedule = list_schedule(
            chain_graph, duration, op_class, {"add": 1},
            delay_ns=delays, cycle_ns=3000.0,
        )
        assert schedule.latency == 4

    def test_delay_exceeding_cycle_rejected(self, chain_graph):
        duration = _unit_durations(chain_graph)
        op_class, counts = partition_resource_model(chain_graph)
        delays = {op.id: 4000.0 for op in chain_graph}
        with pytest.raises(PredictionError):
            list_schedule(
                chain_graph, duration, op_class, counts,
                delay_ns=delays, cycle_ns=3000.0,
            )

    def test_chaining_requires_single_cycle_durations(self, tiny_graph):
        duration = {op.id: 2 for op in tiny_graph}
        op_class, counts = partition_resource_model(tiny_graph)
        delays = {op.id: 10.0 for op in tiny_graph}
        with pytest.raises(PredictionError):
            list_schedule(
                tiny_graph, duration, op_class, counts,
                delay_ns=delays, cycle_ns=3000.0,
            )


class TestPipelineAccounting:
    def test_modulo_usage_accumulates(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, counts = partition_resource_model(ar_graph)
        schedule = list_schedule(ar_graph, duration, op_class, counts)
        usage = schedule.modulo_usage(2)
        assert sum(usage["mul"]) == 16
        assert sum(usage["add"]) == 12

    def test_pipeline_capacity_extremes(self, ar_graph):
        # Modulo resource requirements are famously non-monotone in the
        # initiation interval, but the extremes are fixed: at II 1 every
        # operation overlaps (needs = total count), and at II = latency
        # the requirement equals the plain schedule's peak usage.
        duration = _unit_durations(ar_graph)
        op_class, counts = partition_resource_model(ar_graph)
        schedule = list_schedule(ar_graph, duration, op_class, counts)
        assert schedule.pipeline_capacities(1) == counts
        at_latency = schedule.pipeline_capacities(schedule.latency)
        profile = schedule.usage_profile()
        for cls, need in at_latency.items():
            assert need == max(profile[cls])

    def test_capacity_requirement_bounded(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, counts = partition_resource_model(ar_graph)
        schedule = list_schedule(ar_graph, duration, op_class, counts)
        for ii in range(1, schedule.latency + 1):
            needs = schedule.pipeline_capacities(ii)
            for cls, need in needs.items():
                assert need <= counts[cls]
                # Work conservation: need * ii covers the class's cycles.
                assert need * ii >= counts[cls]

    def test_ii_equal_latency_always_feasible(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, _ = partition_resource_model(ar_graph)
        schedule = list_schedule(
            ar_graph, duration, op_class, {"add": 2, "mul": 2}
        )
        assert schedule.pipeline_feasible(schedule.latency)

    def test_bad_ii_rejected(self, ar_graph):
        duration = _unit_durations(ar_graph)
        op_class, counts = partition_resource_model(ar_graph)
        schedule = list_schedule(ar_graph, duration, op_class, counts)
        with pytest.raises(PredictionError):
            schedule.modulo_usage(0)
