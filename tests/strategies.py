"""Hypothesis strategies for property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.dfg.builders import GraphBuilder
from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import OpType

_BINARY_TYPES = [OpType.ADD, OpType.SUB, OpType.MUL]


@st.composite
def triplet_parts(draw):
    """(lb, ml, ub) with lb <= ml <= ub, bounded magnitudes."""
    values = draw(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=3,
            max_size=3,
        )
    )
    lb, ml, ub = sorted(values)
    return lb, ml, ub


@st.composite
def dags(
    draw,
    max_ops: int = 24,
    max_inputs: int = 5,
    mixed_widths: bool = False,
    max_arity: int = 2,
):
    """A random acyclic data-flow graph built through GraphBuilder.

    Every operation consumes two previously available values (up to
    ``max_arity`` of them, repeats allowed), so the graph is acyclic by
    construction; leaf values become outputs.  With ``mixed_widths``
    every value draws its own bit width.
    """
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    builder = GraphBuilder(f"random-{n_inputs}-{n_ops}")

    def width():
        return draw(st.sampled_from([4, 8, 16, 32])) if mixed_widths else None

    available = [
        builder.input(f"in{i}", width=width()) for i in range(n_inputs)
    ]
    for index in range(n_ops):
        op_type = draw(st.sampled_from(_BINARY_TYPES))
        left = available[
            draw(st.integers(min_value=0, max_value=len(available) - 1))
        ]
        right = available[
            draw(st.integers(min_value=0, max_value=len(available) - 1))
        ]
        more = []
        if max_arity > 2:
            more = draw(st.lists(
                st.sampled_from(available), max_size=max_arity - 2
            ))
        available.append(
            builder.op(op_type, left, right, *more, width=width())
        )
    graph_values = set(available[n_inputs:])
    graph = _finish(builder, graph_values)
    return graph


def _finish(builder: GraphBuilder, produced: set) -> DataFlowGraph:
    """Mark every produced-but-unconsumed value as a primary output."""
    consumed = set()
    for op in builder._operations.values():  # test helper: peek inside
        consumed.update(op.inputs)
    for value_id in sorted(produced - consumed):
        builder.output(value_id)
    if not (produced - consumed):
        # Every produced value is consumed somewhere; mark the last one
        # as an output so the graph has a defined delay.
        builder.output(sorted(produced)[-1])
    return builder.build()
