"""Graceful-degradation tests: soft deadlines and engine degraded mode.

CHOP's contract is "fast, or degraded, but never nothing" — a check
under a soft deadline returns a partial verdict flagged ``degraded``
instead of raising, and an engine whose pool keeps dying stops paying
pool-construction tax and runs serial for a cooldown.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.engine import EvaluationEngine, EvaluationProblem
from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import session_to_dict
from repro.resilience import SoftDeadline
from repro.service import ChopService


class TestSoftDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            SoftDeadline(0)
        with pytest.raises(ValueError):
            SoftDeadline(-1.0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_rejects_non_finite_budget(self, seconds):
        # Neither would ever expire: a silent "no deadline".
        with pytest.raises(ValueError, match="finite"):
            SoftDeadline(seconds)

    def test_expires_after_budget(self):
        deadline = SoftDeadline(0.02)
        assert not deadline()
        assert deadline.remaining_s() > 0
        time.sleep(0.03)
        assert deadline()
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0


class TestSearchSoftDeadline:
    @pytest.fixture(scope="class")
    def session(self):
        return experiment2_session(partition_count=3)

    def test_enumeration_degrades_but_answers(self, session):
        full = session.check(heuristic="enumeration")
        partial = session.check(
            heuristic="enumeration", soft_deadline_s=1e-6
        )
        # At least one combination is always evaluated; the rest of the
        # walk is skipped and the verdict says so.
        assert 1 <= partial.trials < full.trials
        assert partial.degraded
        assert partial.to_dict()["degraded"] is True
        assert not full.degraded

    def test_iterative_degrades_but_answers(self, session):
        partial = session.check(
            heuristic="iterative", soft_deadline_s=1e-6
        )
        assert partial.trials >= 1
        assert partial.degraded

    def test_generous_deadline_is_not_degraded(self, session):
        result = session.check(
            heuristic="enumeration", soft_deadline_s=300.0
        )
        assert not result.degraded

    def test_soft_deadline_forces_serial_path(self, session):
        engine = EvaluationEngine(workers=2, min_combinations=1)
        session.check(
            heuristic="enumeration", engine=engine, soft_deadline_s=1e-6
        )
        # The engine was handed in but the soft deadline bypassed it:
        # shard boundaries would make the visited prefix nondeterministic.
        stats = engine.stats()
        assert stats["searches_parallel"] == 0
        assert stats["searches_serial"] == 0


class _UnpoolableEngine(EvaluationEngine):
    """An engine whose process pool can never be created."""

    def _make_executor(self, problem):
        raise OSError("no processes on this platform")


class TestEngineDegradedMode:
    def _problem(self):
        session = experiment2_session(partition_count=3)
        return EvaluationProblem.build(
            session.partitioning(),
            session.pruned_predictions(),
            session.clocks,
            session.library,
            session.criteria,
        )

    def test_repeated_pool_failures_enter_degraded_mode(self):
        problem = self._problem()
        engine = _UnpoolableEngine(
            workers=2, min_combinations=1,
            degrade_after=2, degrade_cooldown_s=60.0,
        )
        # Two consecutive pool failures: both fall back serially.
        for _ in range(2):
            run = engine.run(problem)
            assert run.mode == "serial-fallback"
        assert engine.is_degraded()
        assert engine.stats()["pool_failures_consecutive"] == 2
        # The third run skips pool construction entirely.
        run = engine.run(problem)
        assert run.mode == "serial-degraded"
        stats = engine.stats()
        assert stats["searches_degraded"] == 1
        assert stats["degraded"] is True

    def test_cooldown_expiry_restores_parallel_attempts(self):
        problem = self._problem()
        engine = _UnpoolableEngine(
            workers=2, min_combinations=1,
            degrade_after=1, degrade_cooldown_s=0.05,
        )
        engine._note_pool_failure()
        assert engine.is_degraded()
        time.sleep(0.08)
        assert not engine.is_degraded()
        # Pools are attempted again (and fail again -> fallback).
        run = engine.run(problem)
        assert run.mode == "serial-fallback"

    def test_degrade_after_zero_disables(self):
        problem = self._problem()
        engine = _UnpoolableEngine(
            workers=2, min_combinations=1, degrade_after=0
        )
        for _ in range(4):
            assert engine.run(problem).mode == "serial-fallback"
        assert not engine.is_degraded()

    def test_clean_run_resets_failure_streak(self):
        problem = self._problem()
        broken = _UnpoolableEngine(
            workers=2, min_combinations=1, degrade_after=3
        )
        broken.run(problem)
        assert broken.stats()["pool_failures_consecutive"] == 1
        healthy = EvaluationEngine(
            workers=2, min_combinations=1, degrade_after=3
        )
        healthy._note_pool_failure()
        healthy._note_pool_ok()
        assert healthy.stats()["pool_failures_consecutive"] == 0

    def test_negative_degrade_after_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(workers=2, degrade_after=-1)


class TestServiceSoftDeadline:
    @pytest.fixture()
    def service(self):
        svc = ChopService(workers=1)
        yield svc
        svc.close()

    @pytest.fixture(scope="class")
    def project_doc(self):
        return session_to_dict(
            experiment2_session(partition_count=3)
        )

    def _upload(self, service, doc):
        status, payload, _route, _hdrs = service.handle(
            "POST", "/projects", json.dumps(doc).encode()
        )
        assert status in (200, 201)
        return payload["project_id"]

    def test_check_with_soft_deadline_bypasses_verdict_cache(
        self, service, project_doc
    ):
        pid = self._upload(service, project_doc)
        body = json.dumps(
            {
                "heuristic": "enumeration",
                "soft_deadline_s": 1e-6,
            }
        ).encode()
        status, payload, _route, _hdrs = service.handle(
            "POST", f"/projects/{pid}/check", body
        )
        assert status == 200
        assert payload["result"]["degraded"] is True
        assert payload["cache_hit"] is False
        # A second identical degraded check is recomputed, never served
        # from the verdict cache — partial answers are not memoized.
        status, payload, _route, _hdrs = service.handle(
            "POST", f"/projects/{pid}/check", body
        )
        assert payload["cache_hit"] is False
        # ... and a full check afterwards does not inherit the partial.
        full_body = json.dumps({"heuristic": "enumeration"}).encode()
        status, payload, _route, _hdrs = service.handle(
            "POST", f"/projects/{pid}/check", full_body
        )
        assert status == 200
        assert payload["result"]["degraded"] is False

    @pytest.mark.parametrize("bad", ["soon", -1, 0])
    def test_invalid_soft_deadline_is_400(
        self, service, project_doc, bad
    ):
        pid = self._upload(service, project_doc)
        status, payload, _route, _hdrs = service.handle(
            "POST",
            f"/projects/{pid}/check",
            json.dumps({"soft_deadline_s": bad}).encode(),
        )
        assert status == 400
