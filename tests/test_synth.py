"""Tests for the synthesis backend and prediction validation."""

from __future__ import annotations

import pytest

from repro.bad.allocation import partition_resource_model
from repro.bad.scheduling import list_schedule
from repro.errors import PredictionError
from repro.synth.binding import bind_design
from repro.synth.netlist import build_netlist
from repro.synth.validate import (
    synthesize_prediction,
    validation_report,
)


def _schedule(graph, capacities=None):
    duration = {op.id: 1 for op in graph.operations.values()} if False \
        else {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    return list_schedule(graph, duration, op_class, capacities or counts)


class TestUnitBinding:
    def test_every_operation_bound(self, ar_graph):
        schedule = _schedule(ar_graph, {"add": 3, "mul": 4})
        bound = bind_design(ar_graph, schedule)
        assert set(bound.unit_of) == set(ar_graph.operations)

    def test_units_within_capacity(self, ar_graph):
        schedule = _schedule(ar_graph, {"add": 3, "mul": 4})
        bound = bind_design(ar_graph, schedule)
        assert bound.units_used["add"] <= 3
        assert bound.units_used["mul"] <= 4

    def test_no_double_booking(self, ar_graph):
        schedule = _schedule(ar_graph, {"add": 2, "mul": 3})
        bound = bind_design(ar_graph, schedule)
        for cls, used in bound.units_used.items():
            for index in range(used):
                ops = [
                    op_id for op_id, unit in bound.unit_of.items()
                    if unit == (cls, index)
                ]
                spans = sorted(
                    (schedule.start[o], schedule.finish(o)) for o in ops
                )
                for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
                    assert e1 <= b2, f"{cls}#{index} double-booked"

    def test_serial_binding_uses_one_unit(self, chain_graph):
        schedule = _schedule(chain_graph, {"add": 1})
        bound = bind_design(chain_graph, schedule)
        assert bound.units_used == {"add": 1}


class TestRegisterBinding:
    def test_no_lifetime_overlap_within_register(self, ar_graph):
        from repro.bad.allocation import value_lifetimes

        schedule = _schedule(ar_graph, {"add": 2, "mul": 2})
        bound = bind_design(ar_graph, schedule)
        lifetimes = value_lifetimes(ar_graph, schedule)
        for register in range(bound.register_count):
            spans = sorted(
                lifetimes[v]
                for v, r in bound.register_of.items()
                if r == register
            )
            for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
                assert e1 <= b2

    def test_left_edge_matches_max_live(self, ar_graph):
        from repro.bad.allocation import register_requirement

        schedule = _schedule(ar_graph, {"add": 2, "mul": 2})
        bound = bind_design(ar_graph, schedule)
        # Left-edge is optimal for interval graphs: register count equals
        # the max-live bound the predictor computed.
        expected = register_requirement(
            ar_graph, schedule, schedule.latency
        )
        assert bound.register_count == expected


class TestNetlist:
    def test_areas_positive_and_consistent(self, ar_graph, library):
        schedule = _schedule(ar_graph, {"add": 2, "mul": 3})
        bound = bind_design(ar_graph, schedule)
        module_set = library.module_sets(
            list(ar_graph.op_counts_by_type())
        )[0]
        netlist = build_netlist(
            ar_graph, schedule, bound, module_set, library, 16
        )
        assert netlist.functional_area_mil2 > 0
        assert netlist.register_area_mil2 > 0
        assert netlist.area_mil2 == pytest.approx(
            netlist.functional_area_mil2
            + netlist.register_area_mil2
            + netlist.mux_area_mil2
            + netlist.controller_area_mil2
            + netlist.wiring_area_mil2
        )

    def test_sharing_creates_muxes(self, ar_graph, tiny_graph, library):
        module_set = library.module_sets(
            list(ar_graph.op_counts_by_type())
        )[0]
        shared = _schedule(ar_graph, {"add": 1, "mul": 2})
        netlist_shared = build_netlist(
            ar_graph, shared, bind_design(ar_graph, shared),
            module_set, library, 16,
        )
        assert netlist_shared.mux_count > 0

        # A single operation: one unit, one register, one writer — no
        # steering anywhere.
        from repro.dfg.builders import GraphBuilder

        b = GraphBuilder("one-op")
        x = b.input("x")
        k = b.input("k")
        y = b.mul(x, k, name="y")
        b.output(y)
        one_op = b.build()
        unshared = _schedule(one_op)
        netlist_unshared = build_netlist(
            one_op, unshared, bind_design(one_op, unshared),
            module_set, library, 16,
        )
        assert netlist_unshared.mux_count == 0


class TestValidation:
    @pytest.fixture(scope="class")
    def comparisons(self, exp1_predictor, ar_graph):
        predictions = exp1_predictor.predict_partition(ar_graph)
        return validation_report(exp1_predictor, ar_graph, predictions)

    def test_predictions_mostly_within_bounds(self, comparisons):
        """The paper's accuracy claim: most predictions bracket the
        synthesized reality."""
        within = sum(1 for c in comparisons if c.within_bounds)
        assert within / len(comparisons) >= 0.8

    def test_most_likely_error_small(self, comparisons):
        errors = [abs(c.relative_error) for c in comparisons]
        assert sum(errors) / len(errors) < 0.10

    def test_pipelined_rejected(self, exp1_predictor, ar_graph):
        predictions = exp1_predictor.predict_partition(ar_graph)
        pipelined = [p for p in predictions if p.pipelined]
        if not pipelined:
            pytest.skip("no pipelined predictions")
        with pytest.raises(PredictionError, match="nonpipelined"):
            synthesize_prediction(
                exp1_predictor, ar_graph, pipelined[0]
            )

    def test_functional_area_exact(self, comparisons):
        """Unit areas are exact library data: the predicted functional
        area equals the synthesized one whenever unit counts agree."""
        for c in comparisons:
            if dict(c.prediction.operators) == dict(
                c.netlist.unit_instances
            ):
                assert c.prediction.area.functional_units.ml == (
                    pytest.approx(c.netlist.functional_area_mil2)
                )

    def test_partition_scope(self, exp1_predictor, ar_graph):
        ops = sorted(ar_graph.operations)[:12]
        predictions = exp1_predictor.predict_partition(
            ar_graph, ops, name="PX"
        )
        comparisons = validation_report(
            exp1_predictor, ar_graph, predictions, ops
        )
        assert comparisons
