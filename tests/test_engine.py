"""Tests for the parallel batch-evaluation engine (repro.engine).

The load-bearing property is *equivalence*: an engine-sharded
enumeration must return byte-identical results to the serial walk, on
every project shape, under every degradation path (serial fallback,
worker death, cancellation).  The pool starts with ``fork`` on Linux;
one test runs it under ``spawn`` so pickling stays covered for the
platforms that start workers that way.  Tests that need the pool on a
small space use the ``pool_always`` fixture.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time

import pytest

from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.schemes import horizontal_cut
from repro.dfg.parser import parse_spec
from repro.cache import DiskPredictionCache
from repro.engine import (
    EvaluationEngine,
    EvaluationProblem,
    Shard,
    ShardResult,
    combination_count,
    decode_combination,
    merge_shard_results,
    plan_shards,
)
import repro.engine.workers as workers_module
from repro.errors import (
    CombinationExplosionError,
    EngineError,
    SearchCancelled,
)
from repro.experiments import experiment1_session, experiment2_session
from repro.library.presets import extended_library
from repro.memory.module import MemoryModule
from tests.test_check_golden import shared_chip_session

SPEC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs",
)


def spec_session(spec_name: str, partitions: int) -> ChopSession:
    """A ready-to-check session built from an example .chop spec."""
    with open(os.path.join(SPEC_DIR, spec_name)) as handle:
        graph = parse_spec(handle.read())
    blocks = sorted(
        {
            op.memory_block
            for op in graph
            if getattr(op, "memory_block", None)
        }
    )
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=60_000.0, delay_ns=60_000.0
        ),
        memories=[
            MemoryModule(name, 256, 16, off_the_shelf=True)
            for name in blocks
        ],
    )
    parts = horizontal_cut(graph, partitions)
    assignment = {}
    for index, part in enumerate(parts):
        chip = f"chip{index + 1}"
        session.add_chip(chip, mosis_package(2))
        assignment[part.name] = chip
    session.set_partitions(parts, assignment)
    return session


def result_doc(result):
    """A comparable result document with the timing jitter removed."""
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


def no_live_workers(timeout_s: float = 5.0) -> bool:
    """True once every child process has been reaped."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# sharding math
# ----------------------------------------------------------------------
class TestSharding:
    def test_decode_matches_product_order(self):
        radices = (2, 3, 4)
        expected = list(
            itertools.product(*(range(r) for r in radices))
        )
        decoded = [
            decode_combination(flat, radices)
            for flat in range(combination_count(radices))
        ]
        assert decoded == expected

    def test_combination_count(self):
        assert combination_count((2, 3, 4)) == 24
        assert combination_count(()) == 1
        # Empty prediction lists are rejected before sharding ever sees
        # them, so a zero radix is a caller bug, not a valid space.
        with pytest.raises(ValueError):
            combination_count((5, 0, 3))

    def test_plan_shards_tiles_exactly(self):
        for total, shard_count in [(100, 8), (7, 3), (64, 64), (5, 9)]:
            shards = plan_shards(total, shard_count)
            assert shards[0].start == 0
            assert shards[-1].stop == total
            for left, right in zip(shards, shards[1:]):
                assert left.stop == right.start
            sizes = [shard.size for shard in shards]
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1

    def test_plan_shards_clamps_and_empties(self):
        assert plan_shards(0, 4) == []
        assert len(plan_shards(3, 10)) == 3

    def test_decode_round_trip_random_radices(self):
        radices = (3, 1, 5, 2)
        seen = set()
        for flat in range(combination_count(radices)):
            digits = decode_combination(flat, radices)
            assert all(d < r for d, r in zip(digits, radices))
            seen.add(digits)
        assert len(seen) == combination_count(radices)


class TestMerge:
    def test_merge_requires_exact_tiling(self):
        def sr(start, stop, trials=None):
            return ShardResult(
                shard=Shard(index=0, start=start, stop=stop),
                feasible=[],
                trials=trials if trials is not None else stop - start,
            )

        feasible, trials = merge_shard_results(
            [sr(4, 8), sr(0, 4)], expected_total=8
        )
        assert feasible == []
        assert trials == 8
        with pytest.raises(EngineError):
            merge_shard_results([sr(0, 4), sr(5, 8)], expected_total=8)
        with pytest.raises(EngineError):
            merge_shard_results([sr(0, 4), sr(3, 8)], expected_total=8)
        with pytest.raises(EngineError):
            merge_shard_results([sr(0, 4)], expected_total=8)


# ----------------------------------------------------------------------
# the evaluation problem
# ----------------------------------------------------------------------
class TestEvaluationProblem:
    @pytest.fixture(scope="class")
    def problem(self):
        session = experiment2_session(partition_count=3)
        return EvaluationProblem.build(
            session.partitioning(),
            session.pruned_predictions(),
            session.clocks,
            session.library,
            session.criteria,
        )

    def test_selection_matches_product_order(self, problem):
        lists = problem.lists
        expected = list(itertools.product(*lists))
        for flat in (0, 1, len(expected) // 2, len(expected) - 1):
            selection = problem.selection(flat)
            assert tuple(
                selection[name] for name in problem.names
            ) == expected[flat]

    def test_problem_is_picklable(self, problem):
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.names == problem.names
        assert clone.combination_count() == problem.combination_count()

    def test_list_sizes(self, problem):
        sizes = problem.list_sizes()
        assert set(sizes) == set(problem.names)
        assert all(size > 0 for size in sizes.values())


# ----------------------------------------------------------------------
# parallel == serial
# ----------------------------------------------------------------------
#: Pool == serial states: a paper cell, the largest paper cell (5,280
#: combinations over every interval the cell has), and a shared-chip
#: state where the level-2 screen fires.  The problem pickled to the
#: workers carries the integration plan and the level-2 table.
EQUIVALENCE_STATES = {
    "exp2_k3": lambda: experiment2_session(partition_count=3),
    "exp2_k5": lambda: experiment2_session(partition_count=5),
    "shared_chip": shared_chip_session,
}


class TestEquivalence:
    @pytest.mark.parametrize("state", sorted(EQUIVALENCE_STATES))
    def test_experiment_session_byte_identical(self, state, pool_always):
        session = EQUIVALENCE_STATES[state]()
        serial = session.check(heuristic="enumeration")
        engine = EvaluationEngine(workers=2)
        parallel = session.check(heuristic="enumeration", engine=engine)
        assert result_doc(parallel) == result_doc(serial)
        assert parallel.trials == serial.trials
        stats = engine.stats()
        assert stats["searches_parallel"] == 1
        assert stats["combinations_evaluated"] == serial.trials

    @pytest.mark.parametrize("spec", ["biquad.chop", "moving_average.chop"])
    def test_spec_projects_byte_identical(self, spec, pool_always):
        session = spec_session(spec, partitions=2)
        serial = session.check(heuristic="enumeration")
        engine = EvaluationEngine(workers=2)
        parallel = session.check(heuristic="enumeration", engine=engine)
        assert result_doc(parallel) == result_doc(serial)

    def test_spawn_pool_byte_identical(self, monkeypatch, pool_always):
        # Workers that re-import everything and receive the problem by
        # pickle, as on macOS and Windows.
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        monkeypatch.setattr(workers_module, "START_METHOD", "spawn")
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context",
            lambda method=None: contexts.append(method) or get_context(method),
        )
        session = experiment2_session(partition_count=3)
        serial = session.check(heuristic="enumeration")
        engine = EvaluationEngine(workers=2)
        spawned = session.check(heuristic="enumeration", engine=engine)
        assert result_doc(spawned) == result_doc(serial)
        assert contexts == ["spawn"]
        stats = engine.stats()
        assert stats["searches_parallel"] == 1
        assert stats["fallbacks"] == stats["shards_retried"] == 0
        assert no_live_workers()

    def test_progress_reports_monotonically(self, pool_always):
        session = experiment2_session(partition_count=3)
        engine = EvaluationEngine(workers=2)
        reports = []
        session.check(
            heuristic="enumeration",
            engine=engine,
            progress=lambda done, total: reports.append((done, total)),
        )
        assert reports
        done_values = [done for done, _ in reports]
        assert done_values == sorted(done_values)
        final_done, final_total = reports[-1]
        assert final_done == final_total

    def test_workers_one_runs_serial(self):
        session = experiment1_session(partition_count=2)
        engine = EvaluationEngine(workers=1)
        problem = EvaluationProblem.build(
            session.partitioning(),
            session.pruned_predictions(),
            session.clocks,
            session.library,
            session.criteria,
        )
        run = engine.run(problem)
        assert run.mode == "serial"
        assert engine.stats()["searches_serial"] == 1

    def test_small_space_stays_in_process(self):
        session = experiment1_session(partition_count=2)
        problem = EvaluationProblem.build(
            session.partitioning(),
            session.pruned_predictions(),
            session.clocks,
            session.library,
            session.criteria,
        )
        assert (
            problem.combination_count() < workers_module.MIN_COMBINATIONS
        )
        engine = EvaluationEngine(workers=4)
        run = engine.run(problem)
        assert run.mode == "serial"


# ----------------------------------------------------------------------
# the pool decision
# ----------------------------------------------------------------------
class TestPlan:
    def test_one_worker_walks_in_process(self):
        plan = EvaluationEngine(workers=1).plan(10_000)
        assert plan.mode == "serial"
        assert plan.shards == (Shard(index=0, start=0, stop=10_000),)

    def test_threshold_decides_and_shards_per_worker(self):
        engine = EvaluationEngine(workers=2)
        threshold = workers_module.MIN_COMBINATIONS
        assert engine.plan(threshold - 1).mode == "serial"
        plan = engine.plan(threshold)
        assert plan.mode == "parallel"
        assert plan.shards == tuple(
            plan_shards(threshold, 2 * workers_module.SHARDS_PER_WORKER)
        )


# ----------------------------------------------------------------------
# degradation paths
# ----------------------------------------------------------------------
class _UnpoolableEngine(EvaluationEngine):
    """An engine whose pool can never be created."""

    def _make_executor(self, problem):
        raise OSError("no processes on this platform")


class TestDegradation:
    def test_pool_failure_falls_back_to_serial(self, pool_always):
        session = experiment2_session(partition_count=3)
        serial = session.check(heuristic="enumeration")
        engine = _UnpoolableEngine(workers=2)
        fallback = session.check(heuristic="enumeration", engine=engine)
        assert result_doc(fallback) == result_doc(serial)
        stats = engine.stats()
        assert stats["fallbacks"] == 1
        assert stats["searches_serial"] == 1

    def test_cancellation_leaves_no_workers(self, monkeypatch,
                                            pool_always):
        monkeypatch.setattr(workers_module, "POLL_INTERVAL_S", 0.01)
        session = experiment2_session(partition_count=3)
        problem = EvaluationProblem.build(
            session.partitioning(),
            session.pruned_predictions(),
            session.clocks,
            session.library,
            session.criteria,
        )
        engine = EvaluationEngine(workers=2)
        with pytest.raises(SearchCancelled):
            engine.run(problem, cancel=lambda: True)
        assert no_live_workers()

    def test_worker_crash_retries_shard_serially(self, monkeypatch,
                                                 pool_always):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection needs the fork start method")
        # The patched task body reaches the workers only through fork.
        monkeypatch.setattr(workers_module, "START_METHOD", "fork")
        monkeypatch.setattr(
            workers_module, "_evaluate_shard", _crash_first_shard
        )
        session = experiment2_session(partition_count=3)
        serial = session.check(heuristic="enumeration")
        engine = EvaluationEngine(workers=2)
        survived = session.check(heuristic="enumeration", engine=engine)
        assert result_doc(survived) == result_doc(serial)
        assert engine.stats()["shards_retried"] >= 1
        assert no_live_workers()


def _crash_first_shard(shard, trace_id=None):
    """Kill the worker handling the first shard; run the rest normally."""
    if shard.start == 0:
        os._exit(13)
    from repro.engine.workers import (
        _WORKER_PROBLEM, _WORKER_CANCEL, evaluate_range,
    )

    started = time.perf_counter()
    feasible, trials = evaluate_range(
        _WORKER_PROBLEM, shard.start, shard.stop,
        cancel=_WORKER_CANCEL.is_set if _WORKER_CANCEL else None,
    )
    return ShardResult(
        shard=shard, feasible=feasible, trials=trials,
        elapsed_s=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# combination explosion reporting
# ----------------------------------------------------------------------
class TestCombinationExplosion:
    def test_structured_error(self, monkeypatch):
        import repro.search.enumeration as enumeration_module

        monkeypatch.setattr(enumeration_module, "MAX_COMBINATIONS", 10)
        session = experiment2_session(partition_count=3)
        with pytest.raises(CombinationExplosionError) as excinfo:
            session.check(heuristic="enumeration")
        error = excinfo.value
        assert error.combinations > error.limit == 10
        assert set(error.list_sizes) == {"P1", "P2", "P3"}
        detail = error.detail()
        assert detail["combinations"] == error.combinations
        assert detail["limit"] == 10
        assert list(detail["list_sizes"]) == sorted(detail["list_sizes"])


# ----------------------------------------------------------------------
# the disk prediction cache
# ----------------------------------------------------------------------
class TestDiskCache:
    @pytest.fixture()
    def session(self):
        return experiment1_session(partition_count=2)

    def test_round_trip(self, tmp_path, session):
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        assert cache.load(key) is None
        cache.store(key, session.export_predictions())
        loaded = cache.load(key)
        assert loaded is not None
        assert set(loaded) == {"P1", "P2"}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hit_rate"] == 0.5

    def test_key_depends_on_inputs(self, tmp_path, session):
        cache = DiskPredictionCache(tmp_path)
        base = cache.key_for("fp", session.library, session.clocks)
        other_clocks = ClockScheme(
            session.clocks.main_cycle_ns * 2,
            dp_multiplier=session.clocks.dp_multiplier,
            transfer_multiplier=session.clocks.transfer_multiplier,
        )
        assert cache.key_for(
            "fp", session.library, other_clocks
        ) != base
        assert cache.key_for(
            "other", session.library, session.clocks
        ) != base
        newer = DiskPredictionCache(tmp_path, version=2)
        assert newer.key_for("fp", session.library, session.clocks) != base

    def test_version_mismatch_invalidates(self, tmp_path, session):
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        payload = {
            "version": cache.version + 1,
            "key": key,
            "predictions": session.export_predictions(),
        }
        with cache.path_for(key).open("wb") as handle:
            pickle.dump(payload, handle)
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        assert cache.stats()["invalidated"] == 1

    def test_corrupt_file_is_a_miss_and_quarantined(
        self, tmp_path, session
    ):
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        path = cache.path_for(key)
        path.write_bytes(b"\x00not a pickle")
        assert cache.load(key) is None
        # The defective bytes move aside for post-mortem instead of
        # being destroyed; the lookup path is clear for the next store.
        assert not path.exists()
        quarantine = path.with_name(path.name + ".corrupt")
        assert quarantine.read_bytes() == b"\x00not a pickle"
        assert cache.stats()["quarantined"] == 1

    def test_store_leaves_no_temp_files(self, tmp_path, session):
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        cache.store(key, session.export_predictions())
        leftovers = [
            name for name in os.listdir(tmp_path)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_seeded_session_skips_prediction(self, tmp_path):
        warmer = experiment1_session(partition_count=2)
        exported = warmer.export_predictions()

        cold = experiment1_session(partition_count=2)
        assert cold.seed_predictions(exported) == 2

        def explode(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("BAD prediction ran on a warm cache")

        cold._predictor.predict_partition = explode  # type: ignore
        result = cold.check(heuristic="enumeration")
        assert result_doc(result) == result_doc(
            warmer.check(heuristic="enumeration")
        )


# ----------------------------------------------------------------------
# baseline batch searches share the engine
# ----------------------------------------------------------------------
class TestBatchSearches:
    def test_exhaustive_bipartition_search_restores_session(self):
        from repro.baselines import exhaustive_bipartition_search

        session = spec_session("biquad.chop", partitions=2)
        before = sorted(session.partitioning().partitions)
        outcome = exhaustive_bipartition_search(
            session, "chip1", "chip2", heuristic="iterative"
        )
        assert outcome.candidates > 0
        assert outcome.best_result is not None
        assert len(outcome.best_partitions) == 2
        assert sorted(session.partitioning().partitions) == before

    def test_random_partition_search_reproducible(self):
        import random

        from repro.baselines import random_partition_search

        session = experiment2_session(partition_count=2)
        outcome_a = random_partition_search(
            session, count=5, rng=random.Random(7),
            heuristic="iterative",
        )
        outcome_b = random_partition_search(
            session, count=5, rng=random.Random(7),
            heuristic="iterative",
        )
        assert outcome_a.candidates == outcome_b.candidates == 5
        if outcome_a.best_result is not None:
            assert result_doc(outcome_a.best_result) == result_doc(
                outcome_b.best_result
            )
