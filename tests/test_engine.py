"""Tests for the parallel batch-evaluation engine (repro.engine).

The load-bearing property is *equivalence*: an engine-sharded
enumeration must return byte-identical results to the serial walk, on
every project shape, under every degradation path (serial fallback,
worker death, cancellation).  The pool starts with ``fork`` on Linux;
one test runs it under ``spawn`` so pickling stays covered for the
platforms that start workers that way.  Tests that need the pool on a
small space use the ``pool_always`` fixture.  The walk skips subtrees
whose pipelined rates conflict and drops combinations whose delay floor
(least adjusted clock times critical path) already fails the delay
check; :func:`reference_evaluate_range` keeps the per-combination loop
without either as their oracle.  Tracing must not change the walk: span
counters are an output only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import multiprocessing
import os
import pickle
import threading
import time

import functools

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.feasibility import evaluate_system
from repro.core.integration import integrate
from repro.errors import (
    ChopError,
    CombinationExplosionError,
    EngineError,
    InfeasibleError,
    SearchCancelled,
)
from repro.experiments import experiment1_session, experiment2_session
from repro.library.presets import extended_library
from repro.memory.module import MemoryModule
from repro.obs import ExplainCollector, Tracer, activate
from repro.search.results import FeasibleDesign
from repro.stats import Triplet
from tests.test_check_golden import (
    SHARED_CHIP_STATES,
    shared_chip_session,
    shared_chip_state_session,
)
from tests.test_integration_golden import CASES as INTEGRATION_STATES

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


def build_problem(session: ChopSession) -> EvaluationProblem:
    """The evaluation problem of ``session``'s pruned enumeration."""
    return EvaluationProblem.build(
        session.partitioning(),
        session.pruned_predictions(),
        session.clocks,
        session.library,
        session.criteria,
    )


#: The paper's cells with k = 2..5, by name.
PAPER_SESSIONS = {
    **{
        f"exp1_pkg{package}_k{k}": functools.partial(
            experiment1_session, package_number=package, partition_count=k
        )
        for package in (1, 2)
        for k in (2, 3, 4, 5)
    },
    **{
        f"exp2_k{k}": functools.partial(experiment2_session, partition_count=k)
        for k in (2, 3, 4, 5)
    },
}


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

    @pytest.mark.parametrize("cell", sorted(PAPER_SESSIONS))
    def test_walkable_count_matches_brute_force(self, cell):
        problem = build_problem(PAPER_SESSIONS[cell]())
        agreeing = sum(
            len({pred.ii_main for pred in combination if pred.pipelined})
            <= 1
            for combination in itertools.product(*problem.lists)
        )
        assert problem.walkable_count() == agreeing


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
        problem = build_problem(PAPER_SESSIONS["exp1_pkg2_k5"]())
        plan = EvaluationEngine(workers=1).plan(problem)
        assert plan.mode == "serial"
        assert plan.shards == (Shard(index=0, start=0, stop=5376),)

    def test_threshold_decides_and_shards_per_worker(self, monkeypatch):
        problem = build_problem(PAPER_SESSIONS["exp2_k5"]())
        walkable = problem.walkable_count()
        engine = EvaluationEngine(workers=2)
        monkeypatch.setattr(workers_module, "MIN_COMBINATIONS", walkable + 1)
        assert engine.plan(problem).mode == "serial"
        monkeypatch.setattr(workers_module, "MIN_COMBINATIONS", walkable)
        plan = engine.plan(problem)
        assert plan.mode == "parallel"
        assert plan.shards == tuple(
            plan_shards(
                problem.combination_count(),
                2 * workers_module.SHARDS_PER_WORKER,
            )
        )

    def test_exp2_k5_walks_in_process(self):
        # 5,280 combinations, of which 416 agree on their pipelined
        # rates: two workers walked it at 0.68-0.99x one process.
        problem = build_problem(PAPER_SESSIONS["exp2_k5"]())
        plan = EvaluationEngine(workers=2).plan(problem)
        assert plan.mode == "serial"
        assert plan.reason.startswith("416 walkable combinations")
        assert plan.shards == (Shard(index=0, start=0, stop=5280),)

    def test_exp1_pkg2_k5_pools(self):
        # 5,376 combinations, 3,840 walkable: the pool paid 1.4-1.8x.
        problem = build_problem(PAPER_SESSIONS["exp1_pkg2_k5"]())
        assert problem.walkable_count() == 3840
        plan = EvaluationEngine(workers=2).plan(problem)
        assert plan.mode == "parallel"
        assert plan.shards[-1].stop == 5376


# ----------------------------------------------------------------------
# the subtree skip and the delay-floor screen against the
# per-combination loop
# ----------------------------------------------------------------------
def reference_evaluate_range(problem, start, stop, collector=None,
                             counters=None):
    """The walk before it skipped rate-conflicting subtrees and screened
    delay floors: decode, area-screen and integrate every combination
    of ``[start, stop)``.

    ``collector`` receives each integrated combination's report and
    ``counters`` the per-combination tallies, as explain counts them:
    level 2 before integration.
    """
    feasible = []
    pruned = unintegrable = 0
    for flat in range(start, stop):
        digits = decode_combination(flat, problem.radices)
        selection = problem.select(digits)
        ii_main = max(pred.ii_main for pred in selection.values())
        if problem.prune and workers_module.chip_area_hopeless(
            problem.area_screen, digits
        ):
            pruned += 1
            continue
        try:
            system = integrate(
                problem.partitioning, selection, ii_main,
                problem.clocks, problem.library, plan=problem.plan,
            )
        except InfeasibleError:
            unintegrable += 1
            continue
        report = evaluate_system(system, problem.criteria)
        if collector is not None:
            collector.record_report(report)
        if report.feasible:
            feasible.append(
                FeasibleDesign(selection=selection, system=system,
                               report=report)
            )
    if counters is not None:
        counters.update(
            combinations=stop - start, pruned_level2=pruned,
            integration_infeasible=unintegrable, feasible=len(feasible),
        )
    return feasible, stop - start


#: States the skip must walk exactly like the per-combination loop:
#: paper cells with few and many conflicts, and three shared-chip
#: states where level 2 fires, two of them inside conflicting subtrees.
ORACLE_STATES = {
    "exp1_pkg1_k3": PAPER_SESSIONS["exp1_pkg1_k3"],
    "exp2_k4": PAPER_SESSIONS["exp2_k4"],
    "exp2_k5": PAPER_SESSIONS["exp2_k5"],
    "shared_chip": shared_chip_session,
    **{
        state: functools.partial(shared_chip_state_session, state)
        for state in SHARED_CHIP_STATES
    },
}


@functools.lru_cache(maxsize=None)
def oracle_problem(state):
    return build_problem(ORACLE_STATES[state]())


@contextlib.contextmanager
def counted_walk_calls():
    """Count the walk's ``chip_area_hopeless`` and ``integrate`` calls."""
    calls = {"chip_area_hopeless": 0, "integrate": 0}
    originals = {name: getattr(workers_module, name) for name in calls}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return call

    try:
        for name in calls:
            setattr(workers_module, name, counting(name))
        yield calls
    finally:
        for name, original in originals.items():
            setattr(workers_module, name, original)


def walk_doc(feasible, names):
    """Each feasible design's prediction objects and summary, in order."""
    return [
        (
            tuple(id(design.selection[name]) for name in names),
            design.to_dict(),
        )
        for design in feasible
    ]


def critical_path(problem, selection):
    """``selection``'s main-clock critical path, from the task graph:
    the longest path with each process task at its pick's
    ``latency_main`` and each data task at its transfer duration."""
    plan = problem.plan
    durations = dict(plan.transfer_durations)
    for task, partition in plan.process_tasks:
        durations[task] = selection[partition].latency_main
    graph = plan.task_graph
    length = {}
    for task in reversed(graph.topological_order()):
        length[task] = durations[task] + max(
            (length[succ] for succ in graph.successors(task)), default=0
        )
    return max(length.values())


@functools.lru_cache(maxsize=None)
def walked_paths(state):
    """Flat index -> critical path of each combination of ``state`` that
    reaches the walk's integration step: its pipelined rates agree and
    level 2's area bound does not kill it."""
    problem = oracle_problem(state)
    paths = {}
    for flat in range(problem.combination_count()):
        digits = decode_combination(flat, problem.radices)
        selection = problem.select(digits)
        rates = {p.ii_main for p in selection.values() if p.pipelined}
        if len(rates) <= 1 and not workers_module.chip_area_hopeless(
            problem.area_screen, digits
        ):
            paths[flat] = critical_path(problem, selection)
    return paths


def delay_kills(problem, paths, start, stop):
    """How many of ``paths`` in ``[start, stop)`` the walk drops for a
    delay floor that fails ``problem``'s delay check."""
    table = problem.delay_floor_table
    if table is None:
        return 0
    return sum(
        start <= flat < stop and workers_module.delay_hopeless(
            problem.plan.delay_floor(problem.selection(flat), table),
            problem.criteria,
        )
        for flat in paths
    )


def with_criteria(problem, **changes):
    """``problem`` rebuilt through :meth:`EvaluationProblem.build` under
    its criteria with ``changes``, from the same prediction objects."""
    return EvaluationProblem.build(
        problem.partitioning,
        dict(zip(problem.names, problem.lists)),
        problem.clocks,
        problem.library,
        dataclasses.replace(problem.criteria, **changes),
        task_graph=problem.plan.task_graph,
    )


class TestSubtreeSkip:
    @given(
        state=st.sampled_from(sorted(ORACLE_STATES)),
        explain=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_combination_loop(self, state, explain, data):
        problem = oracle_problem(state)
        total = problem.combination_count()
        start = data.draw(st.integers(0, total), label="start")
        stop = data.draw(st.integers(start, total), label="stop")
        oracle = ExplainCollector()
        expected, expected_trials = reference_evaluate_range(
            problem, start, stop, oracle, oracle.counters
        )
        with counted_walk_calls() as bare_calls:
            bare, bare_trials = workers_module.evaluate_range(
                problem, start, stop
            )
        assert bare_trials == expected_trials
        assert walk_doc(bare, problem.names) == walk_doc(
            expected, problem.names
        )

        collector = ExplainCollector() if explain else None
        counters = {} if collector is None else collector.counters
        with counted_walk_calls() as calls:
            feasible, trials = workers_module.evaluate_range(
                problem, start, stop, collector=collector, counters=counters,
            )
        assert trials == expected_trials
        assert walk_doc(feasible, problem.names) == walk_doc(
            expected, problem.names
        )
        if explain:
            # Explain screens every skipped combination: level 2 first.
            assert counters == oracle.counters
            assert (
                collector.report().to_dict() == oracle.report().to_dict()
            )
            return
        # Counters alone watch the walk without steering it.  The
        # delay-floor screen credits its kills to level 2, and none of
        # them would have failed integration.
        assert calls == bare_calls
        assert counters["combinations"] == oracle.counters["combinations"]
        assert counters["feasible"] == oracle.counters["feasible"]
        assert (
            counters["pruned_level2"] + counters["integration_infeasible"]
            == oracle.counters["pruned_level2"]
            + oracle.counters["integration_infeasible"]
            + delay_kills(problem, walked_paths(state), start, stop)
        )

    def test_skips_integration_of_conflicting_combinations(self):
        # At a delay confidence of 1e-12 no delay floor fails and the
        # walk integrates every walkable combination; at the paper's 0.8
        # it drops 209 of them first.
        base = oracle_problem("exp2_k5")
        assert base.walkable_count() == 416
        for confidence, integrations in ((1e-12, 416), (0.8, 207)):
            problem = with_criteria(base, delay_confidence=confidence)
            with counted_walk_calls() as calls:
                _feasible, trials = workers_module.evaluate_range(
                    problem, 0, problem.combination_count()
                )
            assert trials == 5280
            assert calls["integrate"] == integrations

    def test_traced_check_walks_like_an_untraced_one(self):
        session = experiment2_session(partition_count=5)
        tracer = Tracer()
        with counted_walk_calls() as calls, activate(tracer):
            session.check("enumeration")
        assert calls == {"chip_area_hopeless": 416, "integrate": 207}
        (walk,) = [
            s for s in tracer.spans() if s["name"] == "search.enumeration"
        ]
        assert walk["counters"] == {
            "combinations": 5280,
            "pruned_level2": 209,
            "integration_infeasible": 4864,
            "feasible": 177,
        }


#: Delay confidences around ``ConstraintCheck.passed``'s 1e-12 float
#: tolerance, where a delay of probability 0 stops passing, and above.
DELAY_CONFIDENCES = (1e-13, 1e-12, 2e-12, 0.5, 0.8, 1.0)


def integrated(problem, selection):
    """``selection`` integrated as the walk integrates it, or ``None``
    where :func:`integrate` rejects it."""
    try:
        return integrate(
            problem.partitioning, selection,
            max(pred.ii_main for pred in selection.values()),
            problem.clocks, problem.library, plan=problem.plan,
        )
    except InfeasibleError:
        return None


@functools.lru_cache(maxsize=None)
def delay_points(state):
    """The delay limits where a walked combination of ``state`` sits on
    an edge of the delay check: each field of its delay floor and, where
    it integrates, of its predicted delay."""
    problem = oracle_problem(state)
    points = set()
    for flat in walked_paths(state):
        selection = problem.selection(flat)
        floor = problem.plan.delay_floor(
            selection, problem.delay_floor_table
        )
        points.update((floor.lb, floor.ml, floor.ub))
        system = integrated(problem, selection)
        if system is not None:
            delay = system.delay_ns
            points.update((delay.lb, delay.ml, delay.ub))
    return tuple(sorted(points))


class TestDelayScreen:
    @given(
        state=st.sampled_from(sorted(ORACLE_STATES)),
        confidence=st.sampled_from(DELAY_CONFIDENCES),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_unscreened_loop(self, state, confidence, data):
        base = oracle_problem(state)
        paths = walked_paths(state)
        main = base.clocks.main_cycle_ns
        low, high = min(paths.values()), max(paths.values())
        delay_ns = data.draw(
            st.sampled_from(delay_points(state))
            | st.integers(low, high * 3 // 2).map(lambda c: main * c)
            | st.floats(main * low, main * high * 1.5),
            label="delay_ns",
        )
        problem = with_criteria(
            base, delay_ns=delay_ns, delay_confidence=confidence
        )
        total = problem.combination_count()
        start = data.draw(st.integers(0, total), label="start")
        stop = data.draw(st.integers(start, total), label="stop")
        expected, expected_trials = reference_evaluate_range(
            problem, start, stop
        )
        integrated_keys = set()
        walk_integrate = workers_module.integrate

        def recording(partitioning, selection, *args, **kwargs):
            integrated_keys.add(
                tuple(id(selection[n]) for n in problem.names)
            )
            return walk_integrate(partitioning, selection, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workers_module, "integrate", recording)
            feasible, trials = workers_module.evaluate_range(
                problem, start, stop
            )
        assert trials == expected_trials
        assert walk_doc(feasible, problem.names) == walk_doc(
            expected, problem.names
        )
        dropped = []
        for flat in paths:
            selection = problem.selection(flat)
            key = tuple(id(selection[n]) for n in problem.names)
            if start <= flat < stop and key not in integrated_keys:
                dropped.append(flat)
        assert len(dropped) == delay_kills(problem, paths, start, stop)
        # Every dropped combination fails its delay check once it is
        # integrated, or fails integration itself.
        for flat in dropped:
            system = integrated(problem, problem.selection(flat))
            if system is None:
                continue
            (delay,) = [
                check
                for check in evaluate_system(system, problem.criteria).checks
                if check.name == "delay"
            ]
            assert not delay.passed
        # The floor drops all that a main clock times critical path over
        # the limit drops, above the 1e-12 tolerance; at or below it,
        # nothing.
        overrun = {
            flat for flat, path in paths.items()
            if start <= flat < stop and main * path > delay_ns
        }
        if confidence > 1e-12:
            assert overrun <= set(dropped)
        else:
            assert dropped == []

    @staticmethod
    def with_first_prediction(**changes):
        """Experiment 1, package 1, k = 3 under a one-cycle (300 ns)
        delay limit, which every critical path overruns, with the first
        prediction of its first list changed."""
        base = with_criteria(
            oracle_problem("exp1_pkg1_k3"), delay_ns=300.0
        )
        assert base.delay_floor_table is not None
        first, *rest = base.lists[0]
        lists = dict(zip(base.names, base.lists))
        lists[base.names[0]] = (dataclasses.replace(first, **changes), *rest)
        return EvaluationProblem.build(
            base.partitioning, lists, base.clocks, base.library,
            base.criteria,
        )

    @pytest.mark.parametrize(
        "floor, confidence, hopeless",
        [
            # Probability exactly 0: hopeless wherever 0 fails the check.
            ((2.0, 3.0, 4.0), 2e-12, True),
            ((2.0, 3.0, 4.0), 1e-12, False),
            # Probability 0.5: hopeless only 1e-9 below the threshold.
            ((0.0, 1.0, 2.0), 0.5 + 1e-12, False),
            ((0.0, 1.0, 2.0), 0.5 + 1e-12 + 5e-10, False),
            ((0.0, 1.0, 2.0), 0.5 + 1e-12 + 2e-9, True),
        ],
    )
    def test_hopeless_keeps_a_margin_above_probability_zero(
        self, floor, confidence, hopeless
    ):
        criteria = FeasibilityCriteria(
            performance_ns=1.0, delay_ns=1.0, delay_confidence=confidence
        )
        assert workers_module.delay_hopeless(
            Triplet(*floor), criteria
        ) is hopeless

    def test_a_negative_clock_overhead_keeps_the_screen_off(self):
        problem = self.with_first_prediction(clock_overhead_ns=-1.0)
        assert problem.delay_floor_table is None
        total = problem.combination_count()
        expected, _trials = reference_evaluate_range(problem, 0, total)
        with counted_walk_calls() as calls:
            feasible, _trials = workers_module.evaluate_range(
                problem, 0, total
            )
        assert calls["integrate"] == len(walked_paths("exp1_pkg1_k3")) == 200
        assert walk_doc(feasible, problem.names) == walk_doc(
            expected, problem.names
        )

    @staticmethod
    def raised(walk, problem):
        """The type and message of the error ``walk`` raises over all of
        ``problem``'s combinations."""
        with pytest.raises(ChopError) as caught:
            walk(problem, 0, problem.combination_count())
        return type(caught.value), str(caught.value)

    def test_a_negative_latency_keeps_the_screen_off(self):
        # integrate() rejects the negative duration: the walk must raise
        # that error, not drop the combinations that carry it.
        problem = self.with_first_prediction(latency_main=-1)
        assert problem.delay_floor_table is None
        error = self.raised(workers_module.evaluate_range, problem)
        assert error == self.raised(reference_evaluate_range, problem)
        assert "negative duration" in error[1]

    def test_keep_all_records_every_combination(self):
        # A keep_all walk plots a point per combination (240) beside the
        # 21 partition predictions, so it integrates and records the 172
        # combinations the screen drops on this cell.
        result = PAPER_SESSIONS["exp1_pkg1_k3"]().check(
            "enumeration", keep_all=True
        )
        assert result.trials == 240
        assert result.space.total == 240 + 21

    @pytest.mark.parametrize(
        "state", ["exp1_pkg1_k3_pins6", "exp1_pkg1_k3_pins400"]
    )
    def test_a_stored_plan_failure_keeps_the_screen_off(self, state):
        # 6 pins fail the pin budget, 400 pads fill the die: the plan
        # stores a ChipError that integrate() raises before or after
        # scheduling.  A one-cycle delay limit is overrun by every path.
        setup = INTEGRATION_STATES[state]()
        criteria = FeasibilityCriteria(
            performance_ns=30_000.0, delay_ns=setup.clocks.main_cycle_ns
        )
        problem = EvaluationProblem.build(
            setup.partitioning, setup.lists, setup.clocks, setup.library,
            criteria,
        )
        assert problem.plan.failed
        assert problem.delay_floor_table is None
        assert self.raised(
            workers_module.evaluate_range, problem
        ) == self.raised(reference_evaluate_range, problem)


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


    def test_cancel_flag_outlives_a_terminated_poller(self):
        # A pool whose worker dies terminates the others mid-walk, where
        # they poll the cancel flag; the parent sets it afterwards and
        # must not block on anything a terminated poller held.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        context = multiprocessing.get_context("fork")
        flag = workers_module._CancelFlag(context)
        poller = context.Process(target=_poll_forever, args=(flag,))
        poller.start()
        time.sleep(0.2)
        poller.terminate()
        poller.join(5)
        setter = threading.Thread(target=flag.set, daemon=True)
        setter.start()
        setter.join(5)
        assert not setter.is_alive()
        assert flag.is_set()


def _poll_forever(flag):
    while not flag.is_set():
        pass


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
