"""Tests for the feasibility explain reports (repro.obs.explain)."""

from __future__ import annotations

from repro.experiments import experiment1_session, experiment2_session
from repro.obs import ExplainCollector


class _FakeCheck:
    def __init__(self, name, passed, probability=1.0, margin=0.0,
                 confidence=0.9):
        self.name = name
        self.passed = passed
        self.probability = probability
        self.margin = margin
        self.confidence = confidence


class _FakeReport:
    def __init__(self, checks):
        self.checks = checks
        self.feasible = all(c.passed for c in checks)


class TestCollector:
    def test_counts_and_first_blocker_attribution(self):
        collector = ExplainCollector()
        # The walk credits its own counters; the collector only reads
        # them.  Five combinations: one level-2 kill, one integration
        # failure and three checked, one of them feasible.
        collector.counters.update(
            combinations=5, pruned_level2=1, integration_infeasible=1,
            feasible=1,
        )
        collector.record_report(_FakeReport([
            _FakeCheck("area:chip1", passed=False, probability=0.1,
                       margin=-50.0),
            _FakeCheck("delay", passed=False, probability=0.3,
                       margin=-2.0),
        ]))
        collector.record_report(_FakeReport([
            _FakeCheck("area:chip1", passed=True),
            _FakeCheck("delay", passed=False, probability=0.6,
                       margin=-1.0),
        ]))
        collector.record_report(_FakeReport([
            _FakeCheck("area:chip1", passed=True),
            _FakeCheck("delay", passed=True),
        ]))

        report = collector.report(combination_count=10)
        assert report.evaluated == 5
        assert report.pruned_level2 == 1
        assert report.integration_infeasible == 1
        assert report.checked == 3
        assert report.feasible == 1

        area = report.constraints["area:chip1"]
        delay = report.constraints["delay"]
        # area failed once and was the first blocker that time; delay
        # failed twice but blocked first only once.
        assert area.failures == 1 and area.first_blocker == 1
        assert delay.failures == 2 and delay.first_blocker == 1
        assert delay.min_probability == 0.3
        assert area.worst_margin == -50.0
        # Tied on first-blocker count; delay's higher failure total
        # breaks the tie.
        assert [t.name for t in report.blockers()] == [
            "delay", "area:chip1",
        ]

    def test_to_dict_is_json_shaped(self):
        import json

        collector = ExplainCollector()
        collector.counters.update(
            combinations=1, pruned_level2=0, integration_infeasible=0,
            feasible=0,
        )
        collector.record_report(_FakeReport([
            _FakeCheck("power:chip1", passed=False, probability=0.2,
                       margin=-7.5),
        ]))
        doc = collector.report(combination_count=1).to_dict()
        json.dumps(doc)  # must serialize
        assert doc["infeasible"] == 1
        assert doc["blockers"] == ["power:chip1"]
        assert doc["constraints"]["power:chip1"]["failures"] == 1


class TestSessionExplain:
    def test_explain_covers_the_whole_space(self):
        session = experiment2_session(partition_count=3)
        report = session.explain()
        # Serial walk covers every pruned combination exactly once.
        assert report.evaluated == report.combination_count > 0
        assert report.feasible > 0
        # The census matches the session's own pruning.
        kept = {
            name: len(preds)
            for name, preds in session.pruned_predictions().items()
        }
        raw = {
            name: len(preds)
            for name, preds in session.predict_all().items()
        }
        assert report.level1 == {
            name: {"predicted": raw[name], "kept": kept[name]}
            for name in kept
        }
        # Every first-blocker kill is an infeasible checked combination.
        blocked = sum(t.first_blocker for t in report.blockers())
        assert blocked == report.checked - report.feasible

    def test_explain_matches_check_verdict(self):
        session = experiment1_session(
            package_number=2, partition_count=2
        )
        result = session.check(heuristic="enumeration")
        report = session.explain()
        assert report.feasible == len(result.feasible)
        assert report.evaluated == result.trials

    def test_render_is_human_readable(self):
        session = experiment1_session(
            package_number=2, partition_count=2
        )
        text = session.explain().render()
        assert "combinations evaluated" in text
        assert "level-1 pruning" in text
        assert "kept" in text
