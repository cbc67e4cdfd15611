"""Fault-injection tests: the harness itself, then the recovery paths.

The point of ``$CHOP_FAULTS`` is that an injected fault travels the
*same* code path as the real failure it mimics (``InjectedFault`` is an
``OSError``), so these tests assert end-to-end recovery — a killed shard
is re-run in process and the merged result is byte-identical to the
serial run; a failing cache write is written again and then succeeds.
A failing job body is not re-run: the job fails on its one run.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.engine.workers as workers_module
from repro.cache import DiskPredictionCache, check_with_cache
from repro.cli import main
from repro.engine import EvaluationEngine
from repro.experiments import experiment1_session, experiment2_session
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FAULTS_ENV,
    FaultPlan,
    InjectedFault,
    active_plan,
    maybe_inject,
    reset_counters,
)
from repro.service import ChopService


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No leftover spec or first-K tallies between tests."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_counters()
    yield
    reset_counters()


def result_doc(result):
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


# ----------------------------------------------------------------------
# the harness itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parses_mixed_spec(self):
        plan = FaultPlan("shard=2,cache_store=1,cache_load=3")
        assert plan.value("shard") == 2
        assert plan.value("cache_store") == 1
        assert plan.value("cache_load") == 3
        assert plan.value("shard_exit") is None

    def test_empty_spec_has_no_sites(self):
        assert FaultPlan("").sites == {}

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus_site=1", "shard", "shard=x", "shard=-1", "=3",
            "job=1", "cache_store_delay=0.05",
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan(spec)

    def test_active_plan_reads_environment(self, monkeypatch):
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV, "cache_load=1")
        plan = active_plan()
        assert plan is not None and plan.value("cache_load") == 1

    def test_injected_fault_is_oserror(self):
        # Load-bearing: this is why injected faults reuse the engine's
        # and cache's real OSError recovery branches.
        assert issubclass(InjectedFault, OSError)


class TestMaybeInject:
    def test_noop_without_env(self):
        maybe_inject("cache_store")  # must not raise
        maybe_inject("shard", index=0)

    def test_counted_site_fires_first_k_only(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_store=2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                maybe_inject("cache_store")
        maybe_inject("cache_store")  # third call: spent
        maybe_inject("cache_store")

    def test_counters_survive_replans(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_load=1")
        with pytest.raises(InjectedFault):
            maybe_inject("cache_load")
        # Re-setting the same spec must not rearm a spent counter.
        monkeypatch.setenv(FAULTS_ENV, "cache_load=1")
        maybe_inject("cache_load")

    def test_indexed_site_matches_exact_index(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "shard=2")
        maybe_inject("shard", index=0)
        maybe_inject("shard", index=1)
        with pytest.raises(InjectedFault):
            maybe_inject("shard", index=2)
        # Indexed sites re-fire every time the index matches.
        with pytest.raises(InjectedFault):
            maybe_inject("shard", index=2)


# ----------------------------------------------------------------------
# engine: a killed shard is re-run in process, merge is identical
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_always")
class TestEngineShardRecovery:
    def test_injected_shard_fault_retried_to_identical_result(
        self, monkeypatch
    ):
        session = experiment2_session(partition_count=3)
        serial = session.check(heuristic="enumeration")

        monkeypatch.setenv(FAULTS_ENV, "shard=0")
        engine = EvaluationEngine(workers=2)
        survived = session.check(heuristic="enumeration", engine=engine)

        assert result_doc(survived) == result_doc(serial)
        assert engine.stats()["shards_retried"] >= 1

    def test_hard_worker_exit_retried_to_identical_result(
        self, monkeypatch
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("shard_exit needs the fork start method")
        session = experiment2_session(partition_count=3)
        serial = session.check(heuristic="enumeration")

        monkeypatch.setattr(workers_module, "START_METHOD", "fork")
        monkeypatch.setenv(FAULTS_ENV, "shard_exit=0")
        engine = EvaluationEngine(workers=2)
        survived = session.check(heuristic="enumeration", engine=engine)

        assert result_doc(survived) == result_doc(serial)
        assert engine.stats()["shards_retried"] >= 1


# ----------------------------------------------------------------------
# prediction cache: failed writes written again, reads degrade to a
# miss — the cache_store/cache_load fault sites live in
# DiskPredictionCache.store and .load.
# ----------------------------------------------------------------------
class TestCacheBackendFaults:
    def test_store_retries_through_injected_faults(
        self, tmp_path, monkeypatch
    ):
        session = experiment1_session(partition_count=2)
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        monkeypatch.setenv(FAULTS_ENV, "cache_store=2")
        cache.store(key, session.export_predictions())
        assert cache.load(key) is not None
        stats = cache.stats()
        assert stats["store_retries"] == 2
        assert stats["store_failures"] == 0

    def test_store_exhaustion_raises_and_store_safely_swallows(
        self, tmp_path, monkeypatch
    ):
        session = experiment1_session(partition_count=2)
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        exported = session.export_predictions()

        monkeypatch.setenv(FAULTS_ENV, "cache_store=10")
        with pytest.raises(OSError):
            cache.store(key, exported)
        assert cache.stats()["store_failures"] == 1

        reset_counters()
        monkeypatch.setenv(FAULTS_ENV, "cache_store=10")
        assert cache.store_safely(key, exported) is False
        assert cache.stats()["store_failures"] == 2

    def test_injected_read_fault_is_a_miss(self, tmp_path, monkeypatch):
        session = experiment1_session(partition_count=2)
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        cache.store(key, session.export_predictions())

        monkeypatch.setenv(FAULTS_ENV, "cache_load=1")
        assert cache.load(key) is None  # fault -> degraded to a miss
        monkeypatch.delenv(FAULTS_ENV)
        # The faulted read quarantined the entry; a rewrite restores it.
        cache.store(key, session.export_predictions())
        assert cache.load(key) is not None


# ----------------------------------------------------------------------
# check_with_cache: the one seed-then-store path of chop check, the
# service and the explore sweep.
# ----------------------------------------------------------------------
class TestCheckWithCache:
    def test_miss_stores_then_hit_seeds(self, tmp_path):
        cache = DiskPredictionCache(tmp_path)
        cold = check_with_cache(experiment1_session(partition_count=2), cache)
        assert (cold.seeded, cold.stored) == (0, True)
        warm = check_with_cache(experiment1_session(partition_count=2), cache)
        assert (warm.seeded, warm.stored) == (2, None)
        assert warm.result.best().ii_main == cold.result.best().ii_main

    def test_failed_store_still_answers(self, tmp_path, monkeypatch):
        cache = DiskPredictionCache(tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "cache_store=10")
        checked = check_with_cache(
            experiment1_session(partition_count=2), cache,
            heuristic="enumeration",
        )
        assert checked.stored is False
        assert checked.result.feasible
        assert cache.stats()["store_failures"] == 1

    def test_without_a_cache_it_is_the_check(self):
        checked = check_with_cache(
            experiment1_session(partition_count=2), None
        )
        assert (checked.seeded, checked.stored) == (0, None)
        assert checked.result.feasible

    def test_cli_reports_a_failed_store_on_stderr(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.io.project import save_project_file

        project = tmp_path / "p.json"
        save_project_file(experiment1_session(partition_count=2), project)
        monkeypatch.setenv(FAULTS_ENV, "cache_store=10")
        assert main(
            ["check", str(project), "--disk-cache", str(tmp_path / "c")]
        ) == 0
        out, err = capsys.readouterr()
        assert "disk cache: write failed after retries" in err
        assert "disk cache:" not in out


# ----------------------------------------------------------------------
# job queue: an infrastructure failure in a job body fails the job on
# its one run; neither the job record nor /metrics speaks of retries.
# ----------------------------------------------------------------------
class TestJobFailure:
    def test_oserror_body_runs_once_and_fails(self):
        service = ChopService(workers=1, registry=MetricsRegistry())
        runs = []

        def broken(job):
            runs.append(job.id)
            raise InjectedFault("disk gone")

        try:
            job = service.jobs.submit(broken)
            finished = service.jobs.wait(job.id, timeout=10)
            assert finished.state == "failed"
            assert finished.error == "InjectedFault: disk gone"
            assert runs == [job.id]
            assert "attempts" not in finished.to_dict()
            assert "retries" not in service.metrics.snapshot()
        finally:
            service.close()
