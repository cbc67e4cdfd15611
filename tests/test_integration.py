"""Tests for system-integration prediction."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chips.chip import Chip
from repro.chips.presets import mosis_package
from repro.core import integration
from repro.core.feasibility import FeasibilityCriteria, evaluate_system
from repro.core.integration import IntegrationPlan, integrate
from repro.core.partitioning import Partitioning
from repro.core.schemes import horizontal_cut, single_partition
from repro.core.tasks import build_task_graph
from repro.engine import workers
from repro.errors import InfeasibleError, PredictionError
from repro.experiments.setups import experiment2_session


def _chips(n, pkg=2):
    return [Chip(f"chip{i+1}", mosis_package(pkg)) for i in range(n)]


@pytest.fixture
def two_way(ar_graph):
    parts = horizontal_cut(ar_graph, 2)
    return Partitioning(
        ar_graph, parts, _chips(2), {"P1": "chip1", "P2": "chip2"}
    )


@pytest.fixture
def predictions(exp1_predictor, ar_graph, two_way):
    return {
        name: exp1_predictor.predict_partition(
            ar_graph, part.op_ids, name=name
        )
        for name, part in two_way.partitions.items()
    }


def _fastest_compatible(preds, l):
    for p in preds:
        if p.pipelined and p.ii_main == l:
            return p
        if not p.pipelined and p.ii_main <= l:
            return p
    return None


class TestIntegrate:
    def test_basic_integration(self, two_way, predictions, exp1_clocks,
                               library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        assert system.ii_main == ii
        assert system.delay_main > max(
            p.latency_main for p in selection.values()
        )
        assert set(system.chip_usage) == {"chip1", "chip2"}
        assert system.clock_cycle_ns.ml > exp1_clocks.main_cycle_ns

    def test_transfer_modules_on_both_sides(self, two_way, predictions,
                                            exp1_clocks, library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        xfer_modules = [
            m for m in system.transfer_modules
            if m.task_name == "xfer:P1->P2"
        ]
        assert {m.mode for m in xfer_modules} == {"input", "output"}
        assert {m.chip for m in xfer_modules} == {"chip1", "chip2"}

    def test_missing_partition_rejected(self, two_way, predictions,
                                        exp1_clocks, library):
        with pytest.raises(PredictionError, match="misses"):
            integrate(
                two_way, {"P1": predictions["P1"][0]}, 100, exp1_clocks,
                library,
            )

    def test_rate_mismatch_rejected(self, two_way, predictions,
                                    exp1_clocks, library):
        pipelined = {
            name: [p for p in preds if p.pipelined]
            for name, preds in predictions.items()
        }
        p1 = pipelined["P1"][0]
        p2 = next(
            (p for p in pipelined["P2"] if p.ii_main != p1.ii_main), None
        )
        if p2 is None:
            pytest.skip("no mismatched pipelined pair available")
        with pytest.raises(InfeasibleError, match="rate mismatch"):
            integrate(
                two_way, {"P1": p1, "P2": p2},
                max(p1.ii_main, p2.ii_main), exp1_clocks, library,
            )

    def test_interval_below_partition_rate_rejected(
        self, two_way, predictions, exp1_clocks, library
    ):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        with pytest.raises(InfeasibleError, match="cannot sustain"):
            integrate(two_way, selection, 1, exp1_clocks, library)

    def test_performance_and_delay_triplets(self, two_way, predictions,
                                            exp1_clocks, library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        assert system.performance_ns.ml == pytest.approx(
            ii * system.clock_cycle_ns.ml
        )
        assert system.delay_ns.ml == pytest.approx(
            system.delay_main * system.clock_cycle_ns.ml
        )
        assert system.performance_ns.lb <= system.performance_ns.ub

    def test_chip_usage_accounts_everything(self, two_way, predictions,
                                            exp1_clocks, library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        for chip, usage in system.chip_usage.items():
            expected = (
                usage.pu_area + usage.dtm_area + usage.pin_mux_area
                + usage.memory_area
            )
            assert usage.total_area.ml == pytest.approx(expected.ml)
            assert usage.usable_area_mil2 > 0
            assert usage.bonded_pins == 84

    def test_same_chip_needs_no_transfer_modules(self, ar_graph,
                                                 exp1_predictor,
                                                 exp1_clocks, library):
        parts = horizontal_cut(ar_graph, 2)
        pt = Partitioning(
            ar_graph, parts, _chips(1), {"P1": "chip1", "P2": "chip1"}
        )
        preds = {
            name: exp1_predictor.predict_partition(
                ar_graph, part.op_ids, name=name
            )
            for name, part in pt.partitions.items()
        }
        selection = {"P1": preds["P1"][-1], "P2": preds["P2"][-1]}
        ii = max(p.ii_main for p in selection.values())
        system = integrate(pt, selection, ii, exp1_clocks, library)
        assert all(
            m.task_name.startswith(("in:", "out:"))
            for m in system.transfer_modules
        )


class TestEvaluate:
    def test_relaxed_criteria_feasible(self, two_way, predictions,
                                       exp1_clocks, library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        generous = FeasibilityCriteria(
            performance_ns=10**9, delay_ns=10**9
        )
        report = evaluate_system(system, generous)
        # Serial implementations easily fit the chips.
        assert report.feasible, [str(c) for c in report.violations()]

    def test_impossible_criteria_infeasible(self, two_way, predictions,
                                            exp1_clocks, library):
        selection = {
            "P1": predictions["P1"][-1],
            "P2": predictions["P2"][-1],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        harsh = FeasibilityCriteria(performance_ns=1.0, delay_ns=1.0)
        report = evaluate_system(system, harsh)
        assert not report.feasible
        names = {c.name for c in report.violations()}
        assert "performance" in names and "delay" in names

    def test_violated_chips_listed(self, two_way, predictions,
                                   exp1_clocks, library):
        # The fastest (largest) implementations overflow the chips.
        selection = {
            "P1": predictions["P1"][0],
            "P2": predictions["P2"][0],
        }
        ii = max(p.ii_main for p in selection.values())
        system = integrate(two_way, selection, ii, exp1_clocks, library)
        criteria = FeasibilityCriteria(
            performance_ns=10**9, delay_ns=10**9
        )
        report = evaluate_system(system, criteria)
        if not report.feasible:
            assert set(report.violated_chips()) <= {"chip1", "chip2"}


class TestTimingMemo:
    """A plan schedules each timing key (``ii_main`` and each process
    task's ``latency_main``) once and shares what follows from it."""

    @pytest.mark.parametrize(
        "partition_count, integrations, schedules",
        [(3, 139, 114), (5, 207, 185)],
    )
    def test_enumeration_schedules_once_per_key(
        self, monkeypatch, partition_count, integrations, schedules
    ):
        counts = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            integration, "schedule_tasks",
            counted("schedule", integration.schedule_tasks),
        )
        monkeypatch.setattr(
            workers, "integrate", counted("integrate", workers.integrate)
        )
        experiment2_session(partition_count=partition_count).check(
            "enumeration"
        )
        assert counts == {"integrate": integrations, "schedule": schedules}

    def test_one_key_shares_one_schedule(self):
        # Experiment 2, k = 3: P1's pipelined and plain picks both take
        # 22 main cycles, so at II 22 the two selections share a key.
        session = experiment2_session(partition_count=3)
        partitioning = session.partitioning()
        lists = session.pruned_predictions()
        plan = IntegrationPlan(
            partitioning, build_task_graph(partitioning), session.clocks,
            session.library,
        )

        def pick(name, latency, pipelined):
            return next(
                pred for pred in lists[name]
                if pred.latency_main == latency and pred.pipelined == pipelined
            )

        base = {"P2": pick("P2", 12, False), "P3": pick("P3", 13, True)}
        systems = [
            integrate(
                partitioning, {**base, "P1": pick("P1", 22, pipelined)}, 22,
                session.clocks, session.library, plan=plan,
            )
            for pipelined in (True, False)
        ]
        first, second = systems
        assert first.selection["P1"] is not second.selection["P1"]
        assert second.schedule is first.schedule
        assert second.transfer_modules is first.transfer_modules
        assert first.chip_usage["chip1"].pu_area != (
            second.chip_usage["chip1"].pu_area
        )

