"""Tests for the data-flow graph structure."""

from __future__ import annotations

import pytest

from repro.dfg.builders import GraphBuilder
from repro.dfg.graph import DataFlowGraph, Operation, Value
from repro.dfg.ops import OpType
from repro.errors import SpecificationError


class TestValueAndOperation:
    def test_value_rejects_non_positive_width(self):
        with pytest.raises(SpecificationError):
            Value(id="v", width=0)

    def test_memory_op_needs_block(self):
        with pytest.raises(SpecificationError):
            Operation(id="r1", op_type=OpType.MEM_READ, inputs=("a",),
                      output="v")

    def test_compute_op_rejects_block(self):
        with pytest.raises(SpecificationError):
            Operation(id="a1", op_type=OpType.ADD, inputs=("a", "b"),
                      output="v", memory_block="M")

    def test_mem_write_produces_no_value(self):
        with pytest.raises(SpecificationError):
            Operation(id="w1", op_type=OpType.MEM_WRITE, inputs=("a",),
                      output="v", memory_block="M")

    def test_compute_op_needs_output(self):
        with pytest.raises(SpecificationError):
            Operation(id="a1", op_type=OpType.ADD, inputs=("a", "b"),
                      output=None)


class TestIntegrity:
    def test_unknown_input_value(self):
        op = Operation("a1", OpType.ADD, ("missing", "b"), "v")
        values = {
            "b": Value("b", 16),
            "v": Value("v", 16, producer="a1"),
        }
        with pytest.raises(SpecificationError):
            DataFlowGraph("bad", {"a1": op}, values)

    def test_producer_mismatch(self):
        op = Operation("a1", OpType.ADD, ("b", "b"), "v")
        values = {
            "b": Value("b", 16),
            "v": Value("v", 16, producer="other"),
        }
        with pytest.raises(SpecificationError):
            DataFlowGraph("bad", {"a1": op}, values)


class TestQueries:
    def test_primary_inputs_outputs(self, tiny_graph):
        assert [v.id for v in tiny_graph.primary_inputs()] == ["a", "b", "c"]
        assert [v.id for v in tiny_graph.primary_outputs()] == ["y"]

    def test_op_counts(self, tiny_graph):
        counts = tiny_graph.op_counts_by_type()
        assert counts[OpType.MUL] == 1
        assert counts[OpType.ADD] == 1

    def test_predecessors_successors(self, tiny_graph):
        (mul_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.MUL
        ]
        (add_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.ADD
        ]
        assert tiny_graph.predecessors(add_id) == [mul_id]
        assert tiny_graph.successors(mul_id) == [add_id]
        assert tiny_graph.predecessors(mul_id) == []
        assert tiny_graph.successors(add_id) == []

    def test_unknown_operation_raises(self, tiny_graph):
        with pytest.raises(SpecificationError):
            tiny_graph.operation("nope")
        with pytest.raises(SpecificationError):
            tiny_graph.value("nope")
        with pytest.raises(SpecificationError):
            tiny_graph.predecessors("nope")

    def test_topological_order_respects_dependencies(self, ar_graph):
        order = ar_graph.topological_order()
        position = {op_id: i for i, op_id in enumerate(order)}
        for op_id in order:
            for pred in ar_graph.predecessors(op_id):
                assert position[pred] < position[op_id]

    def test_topological_order_deterministic(self, ar_graph):
        assert ar_graph.topological_order() == ar_graph.topological_order()

    def test_depth_of_chain(self, chain_graph):
        assert chain_graph.depth() == 4

    def test_len_and_contains(self, tiny_graph):
        assert len(tiny_graph) == 2
        assert "mul1" in tiny_graph
        assert "nope" not in tiny_graph


class TestSubgraph:
    def test_subgraph_boundary_values(self, tiny_graph):
        (mul_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.MUL
        ]
        sub = tiny_graph.subgraph_ops([mul_id])
        # Product now leaves the subgraph -> becomes an output.
        assert len(sub.primary_outputs()) == 1
        assert len(sub.primary_inputs()) == 2  # a and b

    def test_subgraph_consumer_side(self, tiny_graph):
        (add_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.ADD
        ]
        sub = tiny_graph.subgraph_ops([add_id])
        # The product arrives from outside -> primary input; c too.
        assert len(sub.primary_inputs()) == 2
        assert [v.id for v in sub.primary_outputs()] == ["y"]

    def test_subgraph_whole_graph_preserves_io(self, ar_graph):
        sub = ar_graph.subgraph_ops(ar_graph.operations.keys())
        assert len(sub.primary_inputs()) == len(ar_graph.primary_inputs())
        assert len(sub.primary_outputs()) == len(ar_graph.primary_outputs())

    def test_subgraph_keeps_graph_order(self, ar_graph):
        # A set's order follows string hashing, which differs between
        # processes; the subgraph must not inherit it.
        chosen = frozenset(list(ar_graph.operations)[::2])
        sub = ar_graph.subgraph_ops(chosen)
        assert list(sub.operations) == [
            op_id for op_id in ar_graph.operations if op_id in chosen
        ]

    def test_subgraph_rejects_unknown_ops(self, tiny_graph):
        with pytest.raises(SpecificationError):
            tiny_graph.subgraph_ops(["ghost"])


class TestCutValues:
    def test_no_cut_when_single_partition(self, tiny_graph):
        mapping = {op.id: "P1" for op in tiny_graph}
        assert tiny_graph.cut_values(mapping) == []

    def test_cut_between_producer_and_consumer(self, tiny_graph):
        (mul_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.MUL
        ]
        (add_id,) = [
            o.id for o in tiny_graph if o.op_type is OpType.ADD
        ]
        cuts = tiny_graph.cut_values({mul_id: "P1", add_id: "P2"})
        assert len(cuts) == 1
        vid, src, dests = cuts[0]
        assert src == "P1" and dests == {"P2"}

    def test_cycle_detection(self):
        # Build a cyclic structure directly (builder cannot make one).
        ops = {
            "a1": Operation("a1", OpType.ADD, ("v2", "x"), "v1"),
            "a2": Operation("a2", OpType.ADD, ("v1", "x"), "v2"),
        }
        values = {
            "x": Value("x", 16),
            "v1": Value("v1", 16, producer="a1"),
            "v2": Value("v2", 16, producer="a2"),
        }
        graph = DataFlowGraph("cyclic", ops, values)
        with pytest.raises(SpecificationError, match="cycle"):
            graph.topological_order()
