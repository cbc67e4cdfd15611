"""Tests for the BAD predictor facade."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.dfg.builders import GraphBuilder
from repro.errors import PredictionError
from repro.memory.module import MemoryModule


class TestPredictionLists:
    def test_sorted_by_paper_order(self, exp1_predictor, ar_graph):
        preds = exp1_predictor.predict_partition(ar_graph)
        keys = [p.sort_key() for p in preds]
        assert keys == sorted(keys)

    def test_deduplicated(self, exp1_predictor, ar_graph):
        preds = exp1_predictor.predict_partition(ar_graph)
        seen = set()
        for p in preds:
            key = (
                p.module_set.label,
                tuple(sorted(p.operators.items())),
                p.ii_main,
                p.latency_main,
                p.pipelined,
            )
            assert key not in seen
            seen.add(key)

    def test_single_cycle_excludes_slow_modules(
        self, exp1_predictor, ar_graph
    ):
        preds = exp1_predictor.predict_partition(ar_graph)
        # mul3 (7370 ns) does not fit a 3000 ns datapath cycle.
        assert all("mul3" not in p.module_set.label for p in preds)

    def test_multi_cycle_includes_all_modules(
        self, exp2_predictor, ar_graph
    ):
        preds = exp2_predictor.predict_partition(ar_graph)
        labels = {p.module_set.label for p in preds}
        assert any("mul3" in label for label in labels)

    def test_multi_cycle_ii_spectrum_is_wider(
        self, exp1_predictor, exp2_predictor, ar_graph
    ):
        ii1 = {p.ii_main for p in exp1_predictor.predict_partition(ar_graph)}
        ii2 = {p.ii_main for p in exp2_predictor.predict_partition(ar_graph)}
        assert len(ii2) > len(ii1)

    def test_partition_subset(self, exp1_predictor, ar_graph):
        ops = sorted(ar_graph.operations)[:10]
        preds = exp1_predictor.predict_partition(
            ar_graph, ops, name="PX"
        )
        assert preds
        assert all(p.partition == "PX" for p in preds)

    def test_empty_partition_rejected(self, exp1_predictor, ar_graph):
        with pytest.raises(PredictionError):
            exp1_predictor.predict_partition(ar_graph, [], name="PE")


class TestPredictionContents:
    def test_main_cycle_conversion(self, exp1_predictor, ar_graph):
        for p in exp1_predictor.predict_partition(ar_graph):
            assert p.ii_main == p.ii_dp * 10
            assert p.latency_main == p.latency_dp * 10

    def test_pipelined_ii_below_latency(self, exp1_predictor, ar_graph):
        for p in exp1_predictor.predict_partition(ar_graph):
            if p.pipelined:
                assert p.ii_dp < p.latency_dp
            else:
                assert p.ii_dp == p.latency_dp

    def test_area_breakdown_sums(self, exp1_predictor, ar_graph):
        for p in exp1_predictor.predict_partition(ar_graph)[:10]:
            parts = p.area.as_dict().values()
            total = p.area_total
            assert total.ml == pytest.approx(
                sum(part.ml for part in parts)
            )

    def test_io_bits(self, exp1_predictor, ar_graph):
        (pred,) = exp1_predictor.predict_partition(ar_graph)[:1]
        assert pred.input_bits == 18 * 16
        assert pred.output_bits == 2 * 16

    def test_clock_overhead_positive(self, exp1_predictor, ar_graph):
        for p in exp1_predictor.predict_partition(ar_graph)[:10]:
            assert p.clock_overhead_ns > 0

    def test_guideline_lines_mention_decisions(
        self, exp1_predictor, ar_graph
    ):
        pred = exp1_predictor.predict_partition(ar_graph)[0]
        text = "\n".join(pred.guideline_lines())
        assert "design style" in text
        assert "module library" in text
        assert "registers" in text
        assert "multiplexers" in text


class TestDominance:
    def test_dominates_strict(self, exp1_predictor, ar_graph):
        preds = exp1_predictor.predict_partition(ar_graph)
        for p in preds:
            assert not p.dominates(p)

    def test_dominance_definition(self, exp1_predictor, ar_graph):
        preds = exp1_predictor.predict_partition(ar_graph)
        a, b = preds[0], preds[-1]
        if a.dominates(b):
            assert a.ii_main <= b.ii_main
            assert a.latency_main <= b.latency_main
            assert a.area_total.ml <= b.area_total.ml


class TestMemoryPartitions:
    @pytest.fixture
    def memory_graph(self):
        b = GraphBuilder("mem")
        a0 = b.input("a0")
        r0 = b.mem_read(a0, "M")
        r1 = b.mem_read(a0, "M")
        s = b.add(r0, r1, name="s")
        b.mem_write(s, "M")
        b.output(s)
        return b.build()

    @pytest.fixture
    def memory_predictor(self, library, exp2_clocks, exp2_style):
        return BADPredictor(
            library, exp2_clocks, exp2_style,
            memories={"M": MemoryModule("M", 256, 16, ports=1,
                                        access_time_ns=200.0)},
        )

    def test_memory_bandwidth_reported(
        self, memory_predictor, memory_graph
    ):
        preds = memory_predictor.predict_partition(memory_graph)
        for p in preds:
            assert p.memory_bandwidth_bits == {"M": 3 * 16}

    def test_port_limit_bounds_capacity(
        self, memory_predictor, memory_graph
    ):
        preds = memory_predictor.predict_partition(memory_graph)
        # With one port, memory operations serialize: the fastest
        # iteration needs at least 3 memory access slots.
        assert min(p.ii_dp for p in preds) >= 3

    def test_unknown_block_raises(self, library, exp2_clocks, exp2_style,
                                  memory_graph):
        predictor = BADPredictor(library, exp2_clocks, exp2_style)
        with pytest.raises(PredictionError):
            predictor.predict_partition(memory_graph)


class TestParameters:
    def test_custom_parameters_change_areas(self, library, exp1_clocks,
                                            exp1_style, ar_graph):
        lean = BADPredictor(
            library, exp1_clocks, exp1_style,
            params=PredictorParameters(mux_sharing_factor=0.3),
        )
        fat = BADPredictor(
            library, exp1_clocks, exp1_style,
            params=PredictorParameters(mux_sharing_factor=1.0),
        )
        lean_pred = lean.predict_partition(ar_graph)[0]
        fat_pred = fat.predict_partition(ar_graph)[0]
        assert lean_pred.mux_count < fat_pred.mux_count


class TestScheduleReuse:
    def test_chain_places_fewer_schedules_than_it_has_allocations(
        self, monkeypatch
    ):
        """A schedule that leaves a unit idle serves every allocation
        between its peak usage and its capacities, so a 250-op chain under
        the auto-partitioner's library (one module set, one timing) is
        placed fewer times than it has allocations.  Every schedule handed
        to design assembly, placed or reused, passes verification against
        its own capacities."""
        import repro.bad.predictor as predictor
        from repro.auto.partitioner import default_auto_session
        from repro.dfg.builders import generate_dfg

        graph = generate_dfg("chain", 250)
        session = default_auto_session(graph, chips=1)
        placed, assembled = [], []
        place = predictor.list_schedule
        assemble = BADPredictor._designs_for_schedule

        def placing(*args, **kwargs):
            placed.append(place(*args, **kwargs))
            return placed[-1]

        def assembling(self, part, schedule, live):
            assembled.append(schedule)
            return assemble(self, part, schedule, live)

        monkeypatch.setattr(predictor, "list_schedule", placing)
        monkeypatch.setattr(
            BADPredictor, "_designs_for_schedule", assembling
        )
        BADPredictor(
            session.library, session.clocks, session.style
        ).predict_partition(graph)
        allocations = {
            tuple(sorted(schedule.capacities.items()))
            for schedule in assembled
        }
        assert len(allocations) == len(assembled)
        assert 0 < len(placed) < len(allocations)
        for schedule in assembled:
            schedule.verify(graph)


class TestAssemblyCounts:
    @staticmethod
    def _counting(monkeypatch, calls, owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def _predict(self, monkeypatch, predictor, graph):
        import repro.bad.predictor as module

        calls: Counter = Counter()
        for owner, name in (
            (BADPredictor, "_build_prediction"),
            (BADPredictor, "_designs"),
            (module, "allocation_candidates"),
        ):
            self._counting(monkeypatch, calls, owner, name)
        return predictor.predict_partition(graph), calls

    def test_fft4_assembles_each_distinct_design_once(
        self, monkeypatch, big_library
    ):
        """fft4 under the extended library and the multi-cycle style: 27
        module sets over 3 timing keys.  Each timing's distinct designs
        are derived once, and each module set assembles one prediction
        per design of its timing, so every assembly is a returned
        prediction (assembling per allocation took 1,584)."""
        from repro.dfg.benchmarks_ext import fft_graph

        predictor = BADPredictor(
            big_library, ClockScheme(300.0),
            ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        )
        predictions, calls = self._predict(
            monkeypatch, predictor, fft_graph(4)
        )
        assert len(predictions) == 792
        assert calls["_build_prediction"] == 792
        assert calls["_designs"] == 3
        assert calls["allocation_candidates"] == 3

    def test_timings_sharing_busy_cycles_share_one_frontier(
        self, monkeypatch, big_library, exp1_clocks, ar_graph
    ):
        """Chained module sets differ in their delays, not their busy
        cycles: six timing keys, one allocation frontier."""
        predictor = BADPredictor(
            big_library, exp1_clocks,
            ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
        )
        predictions, calls = self._predict(monkeypatch, predictor, ar_graph)
        assert calls["_designs"] == 6
        assert calls["allocation_candidates"] == 1
        assert calls["_build_prediction"] == len(predictions)
