"""End-to-end auto-partitioner: validity, balance, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.auto import AutoPartitionConfig, auto_partition
from repro.auto.partitioner import default_auto_package, default_auto_session
from repro.core.chop import ChopSession
from repro.dfg.builders import generate_dfg
from repro.engine import EvaluationEngine
from repro.errors import ChipError, PartitioningError


def _graph():
    return generate_dfg("layered", 220, seed=4)


def _run(graph, **overrides):
    defaults = dict(chips=3, clusters_per_part=6, refine_passes=4)
    defaults.update(overrides)
    return auto_partition(graph, AutoPartitionConfig(**defaults))


def test_auto_produces_a_valid_chop_partitioning():
    graph = _graph()
    result = _run(graph)
    assert set(result.assignment) == set(graph.operations)
    parts = result.partitions()
    assert len(parts) == 3
    assert all(parts), "no partition may be empty"
    # the CHOP session accepted the assignment: section 2.3 checks ran
    assert result.search is not None
    assert result.to_dict()["chips"] == 3


def test_auto_respects_the_chain_invariant_at_op_level():
    graph = _graph()
    result = _run(graph)
    for value in graph.values.values():
        if value.producer is None:
            continue
        for consumer in graph.consumers(value.id):
            assert (
                result.assignment[value.producer]
                <= result.assignment[consumer]
            )


def test_auto_balances_partitions():
    graph = _graph()
    result = _run(graph, balance_tolerance=0.3)
    sizes = [len(ops) for ops in result.partitions()]
    bound = (1 + 0.3) * graph.op_count() / 3
    assert max(sizes) <= bound + 1
    assert min(sizes) >= 1


def test_auto_is_deterministic():
    graph = _graph()
    first = _run(graph)
    second = _run(graph)
    assert first.assignment == second.assignment
    assert first.cut_bits == second.cut_bits
    assert first.to_dict() == second.to_dict()


def test_auto_matches_serial_under_process_pool_engine(pool_always):
    graph = generate_dfg("chain", 90, seed=6)
    config = AutoPartitionConfig(
        chips=2, clusters_per_part=6, refine_passes=4,
        heuristic="enumeration",
    )
    serial = auto_partition(graph, config)
    engine = EvaluationEngine(workers=2)
    pooled = auto_partition(graph, config, engine=engine)
    assert pooled.assignment == serial.assignment
    assert pooled.cut_bits == serial.cut_bits
    assert pooled.feasible == serial.feasible


def test_auto_with_replication_reports_clones():
    graph = _graph()
    plain = _run(graph)
    rich = _run(graph, replicate=True)
    assert rich.replication is not None
    assert rich.transfer_bits <= plain.transfer_bits
    clone_ids = {c.clone_id for c in rich.replication.clones}
    assert clone_ids <= set(rich.assignment)


def test_auto_config_validation():
    with pytest.raises(PartitioningError):
        AutoPartitionConfig(chips=0).validate()
    with pytest.raises(PartitioningError):
        AutoPartitionConfig(chips=4, balance_tolerance=-0.5).validate()
    with pytest.raises(PartitioningError, match="max_clones"):
        AutoPartitionConfig(max_clones=-1).validate()
    with pytest.raises(PartitioningError, match="feasibility_moves"):
        AutoPartitionConfig(feasibility_moves=-1).validate()
    AutoPartitionConfig(max_clones=0, feasibility_moves=0).validate()


def test_auto_rejects_more_chips_than_ops():
    graph = generate_dfg("chain", 6)
    with pytest.raises(PartitioningError):
        auto_partition(graph, AutoPartitionConfig(chips=10))


def test_auto_progress_ticks_every_stage():
    graph = generate_dfg("chain", 60, seed=1)
    seen = []

    def progress(done, total):
        seen.append((done, total))

    auto_partition(
        graph,
        AutoPartitionConfig(chips=2, replicate=True),
        progress=progress,
    )
    assert seen == [(i, 5) for i in range(1, 6)]


@pytest.mark.parametrize("side", [400.0, 410.0])
def test_unusable_package_raises_before_any_repair_move(monkeypatch, side):
    # The default package of layered 200 over 3 chips bonds 576 pads,
    # 171,418 mil^2 of them: a 400 or 410 mil die is all pad ring.
    moves = []
    migrate = ChopSession.migrate_operations

    def counted(self, *args, **kwargs):
        moves.append(args)
        return migrate(self, *args, **kwargs)

    monkeypatch.setattr(ChopSession, "migrate_operations", counted)

    def factory(graph, chips):
        package = dataclasses.replace(
            default_auto_package(graph, chips),
            width_mil=side, height_mil=side,
        )
        return default_auto_session(graph, chips, package=package)

    with pytest.raises(ChipError, match="pads consume the entire die"):
        auto_partition(
            generate_dfg("layered", 200, seed=7),
            AutoPartitionConfig(chips=3),
            session_factory=factory,
        )
    assert moves == []
