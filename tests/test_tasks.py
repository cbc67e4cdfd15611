"""Tests for data-transfer task creation."""

from __future__ import annotations

import pytest

from repro.chips.chip import Chip
from repro.chips.presets import mosis_package
from repro.core.partitioning import Partitioning
from repro.core.schemes import horizontal_cut, single_partition
from repro.core.tasks import (
    TaskKind,
    build_task_graph,
    memory_interfaces,
)
from repro.dfg.builders import GraphBuilder
from repro.memory.module import MemoryModule


def _chips(n):
    return [Chip(f"chip{i+1}", mosis_package(2)) for i in range(n)]


@pytest.fixture
def two_chip_partitioning(ar_graph):
    parts = horizontal_cut(ar_graph, 2)
    return Partitioning(
        ar_graph, parts, _chips(2), {"P1": "chip1", "P2": "chip2"}
    )


@pytest.fixture
def same_chip_partitioning(ar_graph):
    parts = horizontal_cut(ar_graph, 2)
    return Partitioning(
        ar_graph, parts, _chips(1), {"P1": "chip1", "P2": "chip1"}
    )


class TestTaskCreation:
    def test_process_task_per_partition(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        names = {t.name for t in tg.process_tasks()}
        assert names == {"pu:P1", "pu:P2"}

    def test_inter_chip_transfer_created(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        assert "xfer:P1->P2" in tg.tasks
        task = tg.tasks["xfer:P1->P2"]
        assert task.kind is TaskKind.TRANSFER
        assert task.chips == ("chip1", "chip2")
        assert task.bits > 0

    def test_same_chip_transfer_elided(self, same_chip_partitioning):
        tg = build_task_graph(same_chip_partitioning)
        assert "xfer:P1->P2" not in tg.tasks
        # Precedence is preserved as a direct PU edge.
        assert ("pu:P1", "pu:P2") in tg.edges

    def test_system_io_tasks(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        # Both partitions consume primary inputs (samples/coefficients).
        assert "in:P1" in tg.tasks
        assert "in:P2" in tg.tasks
        # Only P2 produces primary outputs.
        assert "out:P2" in tg.tasks
        assert "out:P1" not in tg.tasks

    def test_input_bits_match_widths(self, ar_graph,
                                     two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        total_in = (
            tg.tasks["in:P1"].bits + tg.tasks["in:P2"].bits
        )
        expected = sum(v.width for v in ar_graph.primary_inputs())
        assert total_in == expected

    def test_transfer_bits_match_cut(self, ar_graph,
                                     two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        cut = ar_graph.cut_values(two_chip_partitioning.partition_map())
        expected = sum(ar_graph.value(vid).width for vid, _s, _d in cut)
        assert tg.tasks["xfer:P1->P2"].bits == expected

    def test_precedence_shape(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        assert ("in:P1", "pu:P1") in tg.edges
        assert ("pu:P1", "xfer:P1->P2") in tg.edges
        assert ("xfer:P1->P2", "pu:P2") in tg.edges
        assert ("pu:P2", "out:P2") in tg.edges

    def test_topological_order(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        order = tg.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for src, dst in tg.edges:
            assert pos[src] < pos[dst]

    def test_communication_links(self, two_chip_partitioning):
        tg = build_task_graph(two_chip_partitioning)
        # chip1: partner chip2 plus the outside world (inputs).
        assert tg.communication_links("chip1") == 2
        # chip2: chip1, world-in, world-out.
        assert tg.communication_links("chip2") == 3

    def test_single_partition_has_only_io(self, ar_graph):
        pt = Partitioning(
            ar_graph, [single_partition(ar_graph)], _chips(1),
            {"P1": "chip1"},
        )
        tg = build_task_graph(pt)
        kinds = {t.kind for t in tg.tasks.values() if t.moves_data}
        assert kinds == {TaskKind.INPUT, TaskKind.OUTPUT}


class TestMemoryInterfaces:
    @pytest.fixture
    def memory_partitioning(self):
        b = GraphBuilder("m")
        a = b.input("a")
        r = b.mem_read(a, "M")
        s = b.add(r, r, name="s")
        b.output(s)
        g = b.build()
        parts = [single_partition(g)]
        return Partitioning(
            g, parts, _chips(2), {"P1": "chip1"},
            memories=[MemoryModule("M", 256, 16)],
            memory_chip={"M": "chip2"},
        )

    def test_both_sides_pay_interface(self, memory_partitioning):
        interfaces = memory_interfaces(memory_partitioning)
        assert interfaces["chip1"] == {"M"}
        assert interfaces["chip2"] == {"M"}

    def test_pin_loads(self, memory_partitioning):
        tg = build_task_graph(memory_partitioning)
        pins = MemoryModule("M", 256, 16).interface_pins()
        assert tg.memory_pin_loads["chip1"] == pins
        assert tg.memory_pin_loads["chip2"] == pins

    def test_resident_memory_is_free(self):
        b = GraphBuilder("m")
        a = b.input("a")
        r = b.mem_read(a, "M")
        s = b.add(r, r, name="s")
        b.output(s)
        g = b.build()
        pt = Partitioning(
            g, [single_partition(g)], _chips(1), {"P1": "chip1"},
            memories=[MemoryModule("M", 256, 16)],
            memory_chip={"M": "chip1"},
        )
        tg = build_task_graph(pt)
        assert tg.memory_pin_loads["chip1"] == 0

    def test_off_the_shelf_memory_only_accessor_pays(self):
        b = GraphBuilder("m")
        a = b.input("a")
        r = b.mem_read(a, "M")
        s = b.add(r, r, name="s")
        b.output(s)
        g = b.build()
        pt = Partitioning(
            g, [single_partition(g)], _chips(2), {"P1": "chip1"},
            memories=[MemoryModule("M", 256, 16, off_the_shelf=True)],
        )
        interfaces = memory_interfaces(pt)
        assert interfaces["chip1"] == {"M"}
        assert interfaces["chip2"] == set()
