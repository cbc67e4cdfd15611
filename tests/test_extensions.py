"""Tests for the section-5 extensions: scan design and arrival times."""

from __future__ import annotations

import pytest

from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.scheduling import asap_schedule, critical_path_cycles
from repro.errors import PredictionError


class TestScanDesign:
    @pytest.fixture(scope="class")
    def plain_and_scan(self, library, exp1_clocks, exp1_style, ar_graph):
        plain = BADPredictor(
            library, exp1_clocks, exp1_style,
            params=PredictorParameters(scan_design=False),
        ).predict_partition(ar_graph)
        scan = BADPredictor(
            library, exp1_clocks, exp1_style,
            params=PredictorParameters(scan_design=True),
        ).predict_partition(ar_graph)
        return plain, scan

    def _pair(self, plain, scan):
        """Match predictions by design point across the two runs."""
        def key(p):
            return (
                p.module_set.label,
                tuple(sorted(p.operators.items())),
                p.ii_main,
                p.pipelined,
            )

        scan_by_key = {key(p): p for p in scan}
        return [
            (p, scan_by_key[key(p)]) for p in plain
            if key(p) in scan_by_key
        ]

    def test_scan_adds_muxes_per_register_bit(self, plain_and_scan):
        pairs = self._pair(*plain_and_scan)
        assert pairs
        for plain_pred, scan_pred in pairs:
            assert (
                scan_pred.mux_count
                >= plain_pred.mux_count + plain_pred.register_bits
            )

    def test_scan_adds_area(self, plain_and_scan):
        pairs = self._pair(*plain_and_scan)
        for plain_pred, scan_pred in pairs:
            assert scan_pred.area_total.ml > plain_pred.area_total.ml

    def test_scan_adds_clock_overhead(self, plain_and_scan):
        pairs = self._pair(*plain_and_scan)
        for plain_pred, scan_pred in pairs:
            assert (
                scan_pred.clock_overhead_ns
                > plain_pred.clock_overhead_ns
            )

    def test_scan_never_changes_timing(self, plain_and_scan):
        pairs = self._pair(*plain_and_scan)
        for plain_pred, scan_pred in pairs:
            assert scan_pred.ii_main == plain_pred.ii_main
            assert scan_pred.latency_main == plain_pred.latency_main


@pytest.fixture(scope="module")
def diffeq_predictor(big_library, exp2_clocks, exp2_style):
    """Diffeq needs SUB/COMPARE components, i.e. the extended library."""
    return BADPredictor(big_library, exp2_clocks, exp2_style)


class TestArrivalTimes:
    def test_asap_respects_ready_times(self, tiny_graph):
        duration = {op.id: 1 for op in tiny_graph}
        (mul_id,) = [
            o.id for o in tiny_graph if o.op_type.value == "mul"
        ]
        start = asap_schedule(tiny_graph, duration, {mul_id: 5})
        assert start[mul_id] == 5

    def test_critical_path_grows_with_arrivals(self, tiny_graph):
        duration = {op.id: 1 for op in tiny_graph}
        (mul_id,) = [
            o.id for o in tiny_graph if o.op_type.value == "mul"
        ]
        base = critical_path_cycles(tiny_graph, duration)
        delayed = critical_path_cycles(
            tiny_graph, duration, {mul_id: 10}
        )
        assert delayed > base

    def test_negative_ready_rejected(self, tiny_graph):
        duration = {op.id: 1 for op in tiny_graph}
        with pytest.raises(PredictionError):
            asap_schedule(tiny_graph, duration, {"mul1": -1})

    def test_predictor_arrivals_delay_latency(
        self, diffeq_predictor, diffeq_graph
    ):
        base = diffeq_predictor.predict_partition(diffeq_graph)
        late = diffeq_predictor.predict_partition(
            diffeq_graph, input_arrivals={"dx": 30}
        )
        assert min(p.latency_main for p in late) > min(
            p.latency_main for p in base
        )

    def test_predictor_zero_arrivals_noop(self, diffeq_predictor,
                                          diffeq_graph):
        base = diffeq_predictor.predict_partition(diffeq_graph)
        zeroed = diffeq_predictor.predict_partition(
            diffeq_graph, input_arrivals={"dx": 0, "x": 0}
        )
        assert [p.sort_key() for p in base] == [
            p.sort_key() for p in zeroed
        ]

    def test_unknown_input_rejected(self, diffeq_predictor, diffeq_graph):
        # An unknown id, a produced value, and an unknown id whose arrival
        # is also malformed (the unknown id is reported first).
        for arrivals in ({"nope": 3}, {"u1": 3}, {"nope": 2.5}):
            with pytest.raises(PredictionError, match="non-input"):
                diffeq_predictor.predict_partition(
                    diffeq_graph, input_arrivals=arrivals
                )

    def test_negative_arrival_rejected(self, diffeq_predictor,
                                       diffeq_graph):
        # Anything but a non-negative plain int: a float or a string
        # used to fail inside the scheduler, and True passed as cycle 1.
        for arrival in (-2, 2.5, "3", True):
            with pytest.raises(PredictionError, match="negative") as caught:
                diffeq_predictor.predict_partition(
                    diffeq_graph, input_arrivals={"dx": arrival}
                )
            assert repr(arrival) in str(caught.value)
