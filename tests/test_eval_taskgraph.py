"""The state store's task graphs and plans vs the from-scratch builder.

The identity guarantee of ``repro.eval``: whatever sequence of
section-2.7 mutations a session goes through, revisits included, the
task graph the context returns is identical — same task dict *order*,
same edge list, same memory pin loads — to ``build_task_graph`` run
fresh on the resulting partitioning, and a check through the warm
session, on a kept integration plan or a fresh one, answers exactly as
a fresh session does.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core import integration
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.partition import Partition
from repro.core.schemes import horizontal_cut
from repro.core.tasks import build_task_graph
from repro.dfg.benchmarks import ar_lattice_filter
from repro.dfg.builders import GraphBuilder
from repro.engine import workers
from repro.errors import PartitioningError, PredictionError
from repro.eval import EvaluationContext
from repro.eval import context as context_module
from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import load_project, session_to_dict
from repro.library.presets import table1_library
from repro.memory.module import MemoryModule


def assert_graphs_identical(actual, expected):
    """Order-sensitive equality on every TaskGraph surface."""
    assert list(actual.tasks) == list(expected.tasks)
    assert actual.tasks == expected.tasks
    assert actual.edges == expected.edges
    assert actual.memory_pin_loads == expected.memory_pin_loads


def apply_random_migration(session, rng, attempts=30):
    """Try random single-op migrations until one validates."""
    names = sorted(session._partitions)
    for _ in range(attempts):
        src, dst = rng.sample(names, 2)
        ops = sorted(session._partitions[src].op_ids)
        if len(ops) <= 1:
            continue
        try:
            session.migrate_operations(src, dst, [rng.choice(ops)])
            return True
        except PartitioningError:
            continue
    return False


CHIPS = ("chip1", "chip2", "chip3")


def memory_session():
    """Three partitions on three chips, reading and writing two blocks.

    The readers land in P1 on chip1 and the writer in P3 on chip3, so
    with M1 on chip1 and M2 on chip3 both chips carry two memory
    interfaces.  Small enough that a check takes milliseconds, so the
    mutator property can re-check a fresh session after every step.
    """
    b = GraphBuilder("memloop", default_width=16)
    addresses = [b.input(f"a{i}") for i in range(6)]
    reads = [
        b.mem_read(addr, "M1" if i % 2 == 0 else "M2")
        for i, addr in enumerate(addresses)
    ]
    total = reads[0]
    for i, value in enumerate(reads[1:]):
        total = b.add(total, value) if i % 2 == 0 else b.mul(total, value)
    b.mem_write(total, "M1")
    b.output(total)
    graph = b.build()
    session = ChopSession(
        graph=graph,
        library=table1_library(),
        clocks=ClockScheme(300.0, dp_multiplier=10),
        style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=60_000, delay_ns=60_000
        ),
        memories=[MemoryModule("M1", 256, 16), MemoryModule("M2", 256, 16)],
    )
    for chip in CHIPS:
        session.add_chip(chip, mosis_package(2))
    session.assign_memory("M1", "chip1")
    session.assign_memory("M2", "chip3")
    session.set_partitions(
        horizontal_cut(graph, 3),
        {"P1": "chip1", "P2": "chip2", "P3": "chip3"},
    )
    return session


def random_move(session, rng):
    name = rng.choice(sorted(session._partitions))
    session.move_partition(name, rng.choice(CHIPS))


def random_memory_assignment(session, rng):
    session.assign_memory(rng.choice(("M1", "M2")), rng.choice(CHIPS))


def random_repartition(session, rng):
    """The current partitions or a fresh cut, in shuffled order."""
    if rng.random() < 0.5:
        parts = list(session._partitions.values())
        assignment = dict(session._partition_chip)
    else:
        parts = horizontal_cut(session.graph, rng.randint(2, 3))
        assignment = {part.name: rng.choice(CHIPS) for part in parts}
    rng.shuffle(parts)
    session.set_partitions(parts, assignment)


#: The four section-2.7 mutators, each drawing its arguments from an rng.
MUTATORS = {
    "migrate_operations": apply_random_migration,
    "move_partition": random_move,
    "assign_memory": random_memory_assignment,
    "set_partitions": random_repartition,
}


def fresh_clone(session):
    """A brand-new session holding the same design, partition order too."""
    clone = load_project(session_to_dict(session))
    clone.set_partitions(
        list(session._partitions.values()), dict(session._partition_chip)
    )
    return clone


def check_outcome(session, heuristic="iterative"):
    """The check's document minus ``cpu_seconds``, or its error."""
    try:
        doc = session.check(heuristic).to_dict()
    except PredictionError as exc:
        return f"{type(exc).__name__}: {exc}"
    doc.pop("cpu_seconds", None)
    return doc


def snapshot(session):
    """What :func:`restore` needs to bring ``session`` back here."""
    return (
        list(session._partitions.values()),
        dict(session._partition_chip),
        dict(session.memory_chip),
    )


def restore(session, state):
    partitions, assignment, memory_chip = state
    for memory, chip in memory_chip.items():
        session.assign_memory(memory, chip)
    session.set_partitions(partitions, assignment)


class TestColdIdentity:
    @pytest.mark.parametrize("count", [1, 2, 3, 6])
    def test_first_build_matches_builder(self, count):
        session = experiment1_session(partition_count=count)
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_memory_pin_loads_match(self):
        session = memory_session()
        partitioning = session.partitioning()
        expected = build_task_graph(partitioning)
        assert any(
            load > 0 for load in expected.memory_pin_loads.values()
        )
        assert_graphs_identical(
            session._eval.task_graph(partitioning), expected
        )


class TestIncrementalIdentity:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(MUTATORS) + ["undo"]),
                st.integers(min_value=0, max_value=2**16),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_migrations(self, steps):
        """Random sequences of all four section-2.7 mutators (op and
        partition migrations, memory moves and repartitions) and of
        undos, which return to a state the session checked before, so
        its checks run on the state's kept plan."""
        session = memory_session()
        context = session._eval
        # Prime the store, then mutate repeatedly.
        context.task_graph(session.partitioning())
        history = []
        for mutator, seed in steps:
            if mutator == "undo":
                if history:
                    restore(session, history.pop())
            else:
                history.append(snapshot(session))
                try:
                    MUTATORS[mutator](session, random.Random(seed))
                except PartitioningError:
                    pass  # rejected and restored; the state still holds
            partitioning = session.partitioning()
            assert_graphs_identical(
                context.task_graph(partitioning),
                build_task_graph(partitioning),
            )
            clone = fresh_clone(session)
            for heuristic in ("iterative", "enumeration"):
                assert check_outcome(session, heuristic) == check_outcome(
                    clone, heuristic
                )

    def test_chip_move_rebuilds_and_counts_one_invalidation(self):
        session = experiment1_session(partition_count=3)
        session._eval.task_graph(session.partitioning())
        before = session.eval_stats()
        session.move_partition("P2", "chip1")
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )
        after = session.eval_stats()
        # A placement change misses the memo key: one fresh build, and
        # the dropped graph counts as one invalidation.
        assert (
            after["taskgraph"]["full_builds"]
            == before["taskgraph"]["full_builds"] + 1
        )
        assert after["invalidations"] == before["invalidations"] + 1

    def test_memory_reassignment(self):
        session = memory_session()
        session._eval.task_graph(session.partitioning())
        session.assign_memory("M2", "chip2")
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_repartition_via_set_partitions(self):
        session = experiment1_session(partition_count=2)
        session._eval.task_graph(session.partitioning())
        graph = session.graph
        parts = horizontal_cut(graph, 3)
        session.add_chip("chip3", mosis_package(2))
        session.set_partitions(
            parts, {"P1": "chip1", "P2": "chip2", "P3": "chip3"}
        )
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_unchanged_partitioning_reuses_assembly(self):
        session = experiment1_session(partition_count=3)
        partitioning = session.partitioning()
        first = session._eval.task_graph(partitioning)
        second = session._eval.task_graph(session.partitioning())
        assert second is first
        assert session.eval_stats()["taskgraph"]["reuses"] == 1

    def test_content_diff_catches_unannounced_mutation(self):
        """A partitioning the context never saw mutate still misses."""
        session = experiment1_session(partition_count=3)
        context = session._eval
        context.task_graph(session.partitioning())
        # Migrated in another session: nothing told this context.
        other = experiment1_session(partition_count=3)
        assert apply_random_migration(other, random.Random(11))
        partitioning = other.partitioning()
        assert_graphs_identical(
            context.task_graph(partitioning),
            build_task_graph(partitioning),
        )


class TestContextCaches:
    def test_lru_eviction_counter(self):
        graph = ar_lattice_filter()
        session = ChopSession(
            graph=graph,
            library=table1_library(),
            clocks=ClockScheme(300.0, dp_multiplier=10),
            style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
            criteria=FeasibilityCriteria(
                performance_ns=30_000, delay_ns=30_000
            ),
            prediction_cache_size=2,
        )
        session.add_chip("chip1", mosis_package(2))
        session.add_chip("chip2", mosis_package(2))
        parts = horizontal_cut(graph, 2)
        session.set_partitions(parts, {"P1": "chip1", "P2": "chip2"})
        rng = random.Random(3)
        for _ in range(4):
            apply_random_migration(session, rng)
            session.predict_all()
        stats = session.eval_stats()
        assert stats["capacity"] == 2
        assert stats["entries"]["raw"] <= 2
        assert stats["evictions"] > 0
        # Bounded cache must not change answers: re-predicting after
        # evictions still works.
        assert all(session.predict_all().values())

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationContext(
                graph=ar_lattice_filter(),
                library=table1_library(),
                clocks=ClockScheme(300.0, dp_multiplier=10),
                style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
                criteria=FeasibilityCriteria(
                    performance_ns=1, delay_ns=1
                ),
                memories={},
                cache_capacity=0,
            )

    def test_content_key_is_order_free(self):
        """Partitions rebuilt from the same op sets hit every cache."""
        session = experiment1_session(partition_count=2)
        session.check()
        first = session._eval.task_graph(session.partitioning())
        before = session.eval_stats()
        rebuilt = [
            Partition.of(name, reversed(sorted(partition.op_ids)))
            for name, partition in session._partitions.items()
        ]
        session.set_partitions(rebuilt, dict(session._partition_chip))
        session.check()
        after = session.eval_stats()
        assert session._eval.task_graph(session.partitioning()) is first
        assert after["misses"] == before["misses"]
        assert after["taskgraph"]["full_builds"] == (
            before["taskgraph"]["full_builds"]
        )

    def test_failed_migration_leaves_session_usable(self):
        """A rejected migration restores state (transactional mutator)."""
        session = experiment1_session(partition_count=3)
        baseline = session.check()
        partitions_before = dict(session._partitions)
        rng = random.Random(5)
        rejected = 0
        names = sorted(session._partitions)
        for _ in range(50):
            src, dst = rng.sample(names, 2)
            ops = sorted(session._partitions[src].op_ids)
            try:
                session.migrate_operations(src, dst, [rng.choice(ops)])
                # Undo a successful move to keep probing failures.
                session.set_partitions(
                    list(partitions_before.values()),
                    dict(session._partition_chip),
                )
            except PartitioningError:
                rejected += 1
                assert session._partitions == partitions_before
        assert rejected > 0
        result = session.check()
        base = baseline.to_dict()
        base.pop("cpu_seconds", None)
        now = result.to_dict()
        now.pop("cpu_seconds", None)
        assert base == now


def counting(monkeypatch):
    """Count the urgency schedules and the walk's integrations."""
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
    return counts


def comparable(result):
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


class TestStateStore:
    def test_rechecks_schedule_until_the_plan_is_kept(self, monkeypatch):
        """exp2 k=5: the first two checks schedule each of the 185
        timing keys once; the second keeps its plan, so the third, and
        the check after a migration and its undo, schedule nothing."""
        counts = counting(monkeypatch)
        session = experiment2_session(partition_count=5)
        docs = []
        for schedules in (185, 185, 0):
            counts.clear()
            docs.append(comparable(session.check("enumeration")))
            assert (counts["integrate"], counts["schedule"]) == (
                207, schedules
            )
        assert docs[1] == docs[0] and docs[2] == docs[0]
        # A sink op of P1 (no consumer inside it) may move on to P2.
        ops = session._partitions["P1"].op_ids
        sink = min(
            op for op in ops
            if not any(succ in ops for succ in session.graph.successors(op))
        )
        session.migrate_operations("P1", "P2", [sink])
        session.check("enumeration")
        session.migrate_operations("P2", "P1", [sink])
        counts.clear()
        assert comparable(session.check("enumeration")) == docs[0]
        assert (counts["integrate"], counts["schedule"]) == (207, 0)

    def test_a_state_checked_once_keeps_no_plan(self):
        session = experiment2_session(partition_count=3)
        session.check("enumeration")
        assert session.eval_stats()["entries"]["plans"] == 0
        session.check("iterative")
        assert session.eval_stats()["entries"]["plans"] == 1

    def test_store_holds_at_most_eight_states(self):
        session = experiment1_session(partition_count=3)
        context = session._eval
        rng = random.Random(7)
        seen = []
        for _ in range(40):
            assert apply_random_migration(session, rng)
            session.check()
            key = context_module._state_key(session.partitioning())
            if key not in seen:
                seen.append(key)
            assert len(context._states) == min(
                len(seen), context_module.STATE_CAPACITY
            )
        assert len(seen) > context_module.STATE_CAPACITY
        # The store keeps the most recently checked states, in order.
        assert list(context._states)[-1] == key
        assert set(context._states) <= set(seen)
        assert session.eval_stats()["entries"]["states"] == 8

    def test_an_over_cap_memo_is_not_kept(self, monkeypatch):
        """exp2 k=5's enumeration fills 185 timing keys and the
        iterative heuristic one more: at a cap of 185 the second
        enumeration's plan is kept, and dropped once an iterative check
        has grown its memo past the cap."""
        monkeypatch.setattr(context_module, "PLAN_TIMING_CAP", 185)
        session = experiment2_session(partition_count=5)
        session.check("enumeration")
        session.check("enumeration")
        (state,) = session._eval._states.values()
        assert state.plan is not None and state.plan.timing_keys == 185
        first = comparable(session.check("iterative"))
        assert state.plan is None
        # A fresh plan answers the same; the iterative heuristic alone
        # fills 5 keys, so this one is kept.
        assert comparable(session.check("iterative")) == first
        assert state.plan is not None and state.plan.timing_keys == 5

    def test_clear_empties_the_store(self):
        session = experiment2_session(partition_count=3)
        session.check("enumeration")
        session.check("enumeration")
        session.clear_prediction_caches()
        entries = session.eval_stats()["entries"]
        assert entries["states"] == entries["plans"] == 0
