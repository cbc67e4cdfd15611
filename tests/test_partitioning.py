"""Tests for partitions and the partitioning data model."""

from __future__ import annotations

import pytest

from repro.chips.chip import Chip
from repro.chips.presets import mosis_package
from repro.core.partition import Partition
from repro.core.partitioning import Partitioning
from repro.core.schemes import horizontal_cut, single_partition
from repro.errors import PartitioningError
from repro.memory.module import MemoryModule


def _two_chips():
    return [
        Chip("chip1", mosis_package(2)),
        Chip("chip2", mosis_package(2)),
    ]


class TestPartition:
    def test_empty_rejected(self):
        with pytest.raises(PartitioningError):
            Partition.of("P1", [])

    def test_unnamed_rejected(self):
        with pytest.raises(PartitioningError):
            Partition.of("", ["a"])

    def test_contains_and_len(self):
        p = Partition.of("P1", ["a", "b"])
        assert len(p) == 2
        assert "a" in p and "c" not in p

    def test_overlaps(self):
        p1 = Partition.of("P1", ["a", "b"])
        p2 = Partition.of("P2", ["b", "c"])
        p3 = Partition.of("P3", ["c"])
        assert p1.overlaps(p2)
        assert not p1.overlaps(p3)

    def test_migrate(self):
        p1 = Partition.of("P1", ["a", "b", "c"])
        p2 = Partition.of("P2", ["d"])
        new1, new2 = p1.migrate(p2, {"b"})
        assert new1.op_ids == frozenset({"a", "c"})
        assert new2.op_ids == frozenset({"b", "d"})

    def test_migrate_cannot_empty(self):
        p1 = Partition.of("P1", ["a"])
        p2 = Partition.of("P2", ["b"])
        with pytest.raises(PartitioningError):
            p1.migrate(p2, {"a"})

    def test_migrate_unowned_ops(self):
        p1 = Partition.of("P1", ["a"])
        p2 = Partition.of("P2", ["b"])
        with pytest.raises(PartitioningError):
            p1.migrate(p2, {"z"})


class TestPartitioningValidation:
    def test_valid_two_way(self, ar_graph):
        parts = horizontal_cut(ar_graph, 2)
        pt = Partitioning(
            ar_graph, parts, _two_chips(),
            {"P1": "chip1", "P2": "chip2"},
        )
        assert pt.partition_of(next(iter(parts[0].op_ids))) == "P1"

    def test_coverage_required(self, ar_graph):
        parts = horizontal_cut(ar_graph, 2)
        with pytest.raises(PartitioningError, match="not assigned to any"):
            Partitioning(
                ar_graph, [parts[0]], _two_chips(), {"P1": "chip1"}
            )

    def test_overlap_rejected(self, ar_graph):
        ops = sorted(ar_graph.operations)
        p1 = Partition.of("P1", ops)
        p2 = Partition.of("P2", ops[:1])
        with pytest.raises(PartitioningError, match="multiple"):
            Partitioning(
                ar_graph, [p1, p2], _two_chips(),
                {"P1": "chip1", "P2": "chip2"},
            )

    def test_unknown_chip_rejected(self, ar_graph):
        parts = [single_partition(ar_graph)]
        with pytest.raises(PartitioningError, match="unknown chip"):
            Partitioning(ar_graph, parts, _two_chips(), {"P1": "chip9"})

    def test_unassigned_partition_rejected(self, ar_graph):
        parts = [single_partition(ar_graph)]
        with pytest.raises(PartitioningError, match="not assigned"):
            Partitioning(ar_graph, parts, _two_chips(), {})

    def test_mutual_dependency_rejected(self, ar_graph):
        # Interleave operations so data flows both ways between P1/P2.
        order = ar_graph.topological_order()
        p1_ops = order[0::2]
        p2_ops = order[1::2]
        with pytest.raises(PartitioningError, match="mutual"):
            Partitioning(
                ar_graph,
                [Partition.of("P1", p1_ops), Partition.of("P2", p2_ops)],
                _two_chips(),
                {"P1": "chip1", "P2": "chip2"},
            )

    def test_same_chip_partitions_allowed(self, ar_graph):
        parts = horizontal_cut(ar_graph, 2)
        pt = Partitioning(
            ar_graph, parts, _two_chips()[:1],
            {"P1": "chip1", "P2": "chip1"},
        )
        assert pt.partitions_on_chip("chip1") == ["P1", "P2"]

    def test_undeclared_memory_rejected(self):
        from repro.dfg.builders import GraphBuilder

        b = GraphBuilder("m")
        a = b.input("a")
        r = b.mem_read(a, "M")
        s = b.add(r, r, name="s")
        b.output(s)
        g = b.build()
        with pytest.raises(PartitioningError, match="undeclared memory"):
            Partitioning(
                g, [single_partition(g)], _two_chips(), {"P1": "chip1"}
            )

    def test_on_chip_memory_needs_assignment(self, ar_graph):
        with pytest.raises(PartitioningError, match="not assigned"):
            Partitioning(
                ar_graph, [single_partition(ar_graph)], _two_chips(),
                {"P1": "chip1"},
                memories=[MemoryModule("M", 16, 16)],
            )

    def test_off_the_shelf_memory_needs_no_assignment(self, ar_graph):
        pt = Partitioning(
            ar_graph, [single_partition(ar_graph)], _two_chips(),
            {"P1": "chip1"},
            memories=[MemoryModule("M", 16, 16, off_the_shelf=True)],
        )
        assert "M" in pt.memories


class TestPartitioningQueries:
    @pytest.fixture
    def pt(self, ar_graph):
        parts = horizontal_cut(ar_graph, 3)
        chips = _two_chips()
        return Partitioning(
            ar_graph, parts, chips,
            {"P1": "chip1", "P2": "chip1", "P3": "chip2"},
        )

    def test_dependencies_follow_levels(self, pt):
        deps = pt.partition_dependencies()
        assert ("P1", "P2") in deps or ("P1", "P3") in deps
        # No backward edges in a horizontal cut.
        for src, dst in deps:
            assert int(src[1]) < int(dst[1])

    def test_partition_map_is_copy(self, pt):
        mapping = pt.partition_map()
        mapping.clear()
        assert pt.partition_map()  # unaffected

    def test_chip_of(self, pt):
        assert pt.chip_of("P3") == "chip2"
        with pytest.raises(PartitioningError):
            pt.chip_of("P9")


class TestSchemes:
    def test_single_partition(self, ar_graph):
        p = single_partition(ar_graph)
        assert len(p) == ar_graph.op_count()

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_horizontal_cut_covers_and_balances(self, ar_graph, count):
        parts = horizontal_cut(ar_graph, count)
        assert len(parts) == count
        all_ops = set()
        for part in parts:
            assert not (all_ops & part.op_ids)
            all_ops |= part.op_ids
        assert all_ops == set(ar_graph.operations)
        sizes = [len(p) for p in parts]
        assert max(sizes) <= 2 * ar_graph.op_count() / count + 4

    def test_horizontal_cut_acyclic(self, ar_graph):
        parts = horizontal_cut(ar_graph, 3)
        chips = _two_chips() + [Chip("chip3", mosis_package(2))]
        # Constructing the Partitioning runs the mutual-dependency check.
        Partitioning(
            ar_graph, parts, chips,
            {"P1": "chip1", "P2": "chip2", "P3": "chip3"},
        )

    def test_too_many_partitions_rejected(self, tiny_graph):
        with pytest.raises(PartitioningError):
            horizontal_cut(tiny_graph, 5)

    def test_bad_count_rejected(self, ar_graph):
        with pytest.raises(PartitioningError):
            horizontal_cut(ar_graph, 0)

    def test_two_way_cut_balances_paper_graph(self, ar_graph):
        parts = horizontal_cut(ar_graph, 2)
        sizes = sorted(len(p) for p in parts)
        assert sizes == [12, 16]
