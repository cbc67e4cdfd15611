"""Tests for memory modules and access profiling."""

from __future__ import annotations

import pytest

from repro.dfg.builders import GraphBuilder
from repro.errors import ChipError, PartitioningError
from repro.memory.access import (
    memory_access_profile,
    memory_pin_load,
)
from repro.memory.module import MemoryModule


@pytest.fixture
def memory_graph():
    """Read two words from M_A, combine, write the result to M_B."""
    b = GraphBuilder("mem")
    a0 = b.input("a0")
    a1 = b.input("a1")
    r0 = b.mem_read(a0, "M_A")
    r1 = b.mem_read(a1, "M_A")
    s = b.add(r0, r1, name="s")
    b.mem_write(s, "M_B")
    b.output(s)
    return b.build()


@pytest.fixture
def modules():
    return {
        "M_A": MemoryModule("M_A", words=256, width_bits=16),
        "M_B": MemoryModule("M_B", words=1024, width_bits=16, ports=2),
    }


class TestMemoryModule:
    def test_capacity(self):
        m = MemoryModule("M", words=256, width_bits=16)
        assert m.capacity_bits == 4096

    def test_address_bits(self):
        assert MemoryModule("M", 256, 16).address_bits == 8
        assert MemoryModule("M", 1000, 16).address_bits == 10
        assert MemoryModule("M", 1, 16).address_bits == 1

    def test_interface_pins(self):
        m = MemoryModule("M", words=256, width_bits=16)
        assert m.interface_pins() == 16 + 8

    def test_on_chip_area(self):
        m = MemoryModule("M", 256, 16, area_per_bit_mil2=4.0)
        assert m.on_chip_area_mil2() == 4096 * 4.0

    def test_off_the_shelf_has_no_design_area(self):
        m = MemoryModule("M", 256, 16, off_the_shelf=True)
        assert m.on_chip_area_mil2() == 0.0

    def test_validation(self):
        with pytest.raises(ChipError):
            MemoryModule("M", 0, 16)
        with pytest.raises(ChipError):
            MemoryModule("M", 16, 16, ports=0)
        with pytest.raises(ChipError):
            MemoryModule("M", 16, 16, access_time_ns=0.0)


class TestAccessProfile:
    def test_counts(self, memory_graph):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        assert profile.reads == {"M_A": 2}
        assert profile.writes == {"M_B": 1}
        assert profile.blocks == ("M_A", "M_B")
        assert profile.accesses("M_A") == 2
        assert sum(map(profile.accesses, profile.blocks)) == 3

    def test_bandwidth_bits(self, memory_graph, modules):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        bandwidth = profile.bandwidth_bits(modules)
        assert bandwidth == {"M_A": 32, "M_B": 16}

    def test_unknown_block_raises(self, memory_graph):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        with pytest.raises(PartitioningError):
            profile.bandwidth_bits({})

    def test_empty_profile_for_compute_ops(self, tiny_graph):
        profile = memory_access_profile(tiny_graph, tiny_graph.operations)
        assert profile.blocks == ()
        assert not profile.reads and not profile.writes


class TestPinLoad:
    def test_non_resident_blocks_cost_pins(self, memory_graph, modules):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        load = memory_pin_load(profile, modules, resident_blocks=())
        assert load == modules["M_A"].interface_pins() + modules[
            "M_B"
        ].interface_pins()

    def test_resident_blocks_are_free(self, memory_graph, modules):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        load = memory_pin_load(
            profile, modules, resident_blocks=("M_A", "M_B")
        )
        assert load == 0

    def test_unknown_block_raises(self, memory_graph):
        profile = memory_access_profile(
            memory_graph, memory_graph.operations
        )
        with pytest.raises(PartitioningError):
            memory_pin_load(profile, {}, resident_blocks=())
