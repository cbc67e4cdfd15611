"""Tests for the enumeration and iterative search heuristics."""

from __future__ import annotations

import pytest

from repro.errors import PredictionError
from repro.experiments import experiment1_session, experiment2_session
from repro.obs.explain import ExplainCollector
from repro.search.enumeration import enumeration_search
from repro.search.iterative import iterative_search
from tests.test_check_golden import shared_chip_session, verdict_doc


def search_inputs(session):
    return (
        session.partitioning(),
        session.pruned_predictions(),
        session.clocks,
        session.library,
        session.criteria,
    )


@pytest.fixture(scope="module")
def two_way_session():
    return experiment1_session(package_number=2, partition_count=2)


@pytest.fixture(scope="module")
def two_way_inputs(two_way_session):
    return search_inputs(two_way_session)


@pytest.fixture(scope="module")
def shared_chip_inputs():
    """Two partitions on one chip: the level-2 screen fires here."""
    return search_inputs(shared_chip_session())


class TestEnumeration:
    def test_trials_equal_product(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = enumeration_search(
            pt, preds, clocks, library, criteria
        )
        expected = 1
        for options in preds.values():
            expected *= len(options)
        assert result.trials == expected

    def test_finds_feasible(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = enumeration_search(
            pt, preds, clocks, library, criteria
        )
        assert result.feasible_trials > 0
        for design in result.feasible:
            assert design.report.feasible

    def test_keep_all_records_every_trial(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = enumeration_search(
            pt, preds, clocks, library, criteria, keep_all=True
        )
        assert result.space is not None
        assert result.space.total == result.trials

    @pytest.mark.parametrize(
        "inputs", ["two_way_inputs", "shared_chip_inputs"]
    )
    def test_pruning_does_not_lose_feasible_designs(self, inputs, request):
        pt, preds, clocks, library, criteria = request.getfixturevalue(inputs)
        collector = ExplainCollector()
        pruned = enumeration_search(
            pt, preds, clocks, library, criteria, prune=True,
            collector=collector,
        )
        unpruned = enumeration_search(
            pt, preds, clocks, library, criteria, prune=False
        )
        assert pruned.feasible_trials == unpruned.feasible_trials
        assert verdict_doc(pruned) == verdict_doc(unpruned)
        # Level 1 leaves the screen nothing to kill on one-partition chips
        # of equal size; it fires only where partitions share a chip.
        fired = collector.counters["pruned_level2"] > 0
        assert fired == (inputs == "shared_chip_inputs")

    def test_empty_predictions_rejected(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        broken = dict(preds)
        broken["P1"] = []
        with pytest.raises(PredictionError):
            enumeration_search(pt, broken, clocks, library, criteria)

    def test_non_inferior_rows_sorted(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = enumeration_search(
            pt, preds, clocks, library, criteria
        )
        rows = result.non_inferior()
        keys = [(d.ii_main, d.delay_main) for d in rows]
        assert keys == sorted(keys)
        # Pareto: delays strictly decrease as II increases.
        for (ii_a, d_a), (ii_b, d_b) in zip(keys, keys[1:]):
            assert ii_a < ii_b and d_a > d_b


class TestIterative:
    def test_finds_feasible(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = iterative_search(pt, preds, clocks, library, criteria)
        assert result.feasible_trials > 0

    def test_fewer_trials_than_enumeration(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        iter_result = iterative_search(
            pt, preds, clocks, library, criteria
        )
        enum_result = enumeration_search(
            pt, preds, clocks, library, criteria
        )
        assert iter_result.trials <= enum_result.trials

    def test_matches_enumeration_best_ii(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        iter_best = iterative_search(
            pt, preds, clocks, library, criteria
        ).best()
        enum_best = enumeration_search(
            pt, preds, clocks, library, criteria
        ).best()
        assert iter_best is not None and enum_best is not None
        assert iter_best.ii_main == enum_best.ii_main

    def test_three_partition_crossover_exp2(self):
        """Experiment 2's Table 6 signature: enumeration beats the
        iterative heuristic at 3 partitions."""
        session = experiment2_session(partition_count=3)
        enum_best = session.check("enumeration").best()
        iter_best = session.check("iterative").best()
        assert enum_best.ii_main <= iter_best.ii_main

    def test_results_are_feasible(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = iterative_search(pt, preds, clocks, library, criteria)
        for design in result.feasible:
            assert design.report.feasible
            assert design.system.ii_main >= max(
                p.ii_main for p in design.selection.values()
            )

    def test_empty_predictions_rejected(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        broken = dict(preds)
        broken["P2"] = []
        with pytest.raises(PredictionError):
            iterative_search(pt, broken, clocks, library, criteria)


class TestSearchResultHelpers:
    def test_best_none_when_empty(self, two_way_inputs):
        from repro.search.results import SearchResult

        empty = SearchResult(
            heuristic="iterative", trials=0, feasible=[], cpu_seconds=0.0
        )
        assert empty.best() is None
        assert empty.non_inferior() == []

    def test_row_shape(self, two_way_inputs):
        pt, preds, clocks, library, criteria = two_way_inputs
        result = iterative_search(pt, preds, clocks, library, criteria)
        row = result.best().row()
        assert set(row) == {
            "initiation_interval", "delay", "clock_cycle_ns"
        }
