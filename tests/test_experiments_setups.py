"""Tests for the canonical experiment session builders."""

from __future__ import annotations

import pytest

from repro.bad.styles import OperationTiming
from repro.errors import PartitioningError
from repro.experiments import (
    EXPERIMENT1_CRITERIA,
    EXPERIMENT2_CRITERIA,
    experiment1_clocks,
    experiment1_session,
    experiment2_clocks,
    experiment2_session,
)


class TestConstants:
    def test_paper_constraints(self):
        assert EXPERIMENT1_CRITERIA.performance_ns == 30_000.0
        assert EXPERIMENT1_CRITERIA.delay_ns == 30_000.0
        assert EXPERIMENT2_CRITERIA.performance_ns == 20_000.0

    def test_paper_confidences(self):
        # "100% of satisfying the performance ... and chip area
        # constraints, and ... 80% of satisfying the system delay".
        for criteria in (EXPERIMENT1_CRITERIA, EXPERIMENT2_CRITERIA):
            assert criteria.performance_confidence == 1.0
            assert criteria.area_confidence == 1.0
            assert criteria.delay_confidence == 0.8

    def test_clock_schemes(self):
        clocks1 = experiment1_clocks()
        assert clocks1.main_cycle_ns == 300.0
        assert clocks1.dp_cycle_ns == 3_000.0
        clocks2 = experiment2_clocks()
        assert clocks2.dp_cycle_ns == 300.0


class TestSessionBuilders:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_experiment1_structure(self, count):
        session = experiment1_session(2, count)
        partitioning = session.partitioning()
        assert len(partitioning.partitions) == count
        assert len(partitioning.chips) == count
        # Each partition on its own chip, per the paper's protocol.
        chips_used = {
            partitioning.chip_of(name)
            for name in partitioning.partitions
        }
        assert len(chips_used) == count
        assert session.style.timing is OperationTiming.SINGLE_CYCLE

    def test_experiment2_structure(self):
        session = experiment2_session(2)
        assert session.style.timing is OperationTiming.MULTI_CYCLE
        assert session.clocks.dp_multiplier == 1

    def test_package_selection(self):
        session = experiment1_session(package_number=1,
                                      partition_count=1)
        chip = next(iter(session.chips.values()))
        assert chip.package.pin_count == 64

    def test_custom_graph(self, fir_graph):
        session = experiment1_session(2, 2, graph=fir_graph)
        assert session.graph is fir_graph

    def test_rejects_bad_count(self):
        with pytest.raises(PartitioningError):
            experiment1_session(2, 0)

    def test_library_is_table1(self):
        session = experiment1_session(2, 1)
        assert len(session.library) == 6
        assert session.library.component_named("mul3").delay_ns == 7370.0
