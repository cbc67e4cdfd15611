"""Kernighan-Lin min-cut bipartitioning over data-flow graphs.

The classic heuristic (Kernighan & Lin 1970, the paper's reference [4])
partitions a weighted undirected graph into two halves of prescribed
sizes while minimising the total weight of cut edges.  Here the vertices
are operations and the edge weights are the bit widths of the values
connecting them — the "sum of costs of values cut" the paper says does
not directly correlate with pin requirements.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.errors import PartitioningError


def edge_weights(graph: DataFlowGraph) -> Dict[Tuple[str, str], int]:
    """Undirected op-to-op edge weights from shared values.

    O(values) to derive; callers evaluating many cuts of one graph
    (sweep loops, benchmarks) should compute this once and pass it to
    :func:`cut_bits`.
    """
    weights: Dict[Tuple[str, str], int] = {}
    for value in graph.values.values():
        if value.producer is None:
            continue
        for consumer in graph.consumers(value.id):
            a, b = sorted((value.producer, consumer))
            if a == b:
                continue
            key = (a, b)
            weights[key] = weights.get(key, 0) + value.width
    return weights


def cut_bits(
    graph: DataFlowGraph,
    side_a: Set[str],
    weights: Optional[Dict[Tuple[str, str], int]] = None,
) -> int:
    """Total bit width of values crossing the (side_a, rest) boundary.

    ``weights`` accepts the precomputed :func:`edge_weights` map of
    ``graph`` so loops evaluating many cuts of the same graph (the KL
    pass itself, the baseline sweeps) pay the O(values) derivation once
    instead of per call.
    """
    unknown = side_a - set(graph.operations)
    if unknown:
        raise PartitioningError(
            f"cut references unknown operations: {sorted(unknown)[:5]}"
        )
    if weights is None:
        weights = edge_weights(graph)
    total = 0
    for (a, b), weight in weights.items():
        if (a in side_a) != (b in side_a):
            total += weight
    return total


def filter_weights(
    weights: Dict[Tuple[str, str], int], op_ids: Set[str]
) -> Dict[Tuple[str, str], int]:
    """Restrict a precomputed weights table to one operation subset.

    Equivalent to ``edge_weights(graph.subgraph_ops(op_ids))``: values
    produced or consumed outside the subset become primary inputs /
    outputs of the induced subgraph and carry no internal edge, which is
    exactly what dropping pairs with an endpoint outside ``op_ids``
    computes — without materialising the subgraph's value table.
    """
    return {
        pair: weight
        for pair, weight in weights.items()
        if pair[0] in op_ids and pair[1] in op_ids
    }


def kl_bipartition(
    graph: DataFlowGraph,
    side_a: Optional[Set[str]] = None,
    max_passes: int = 10,
    weights: Optional[Dict[Tuple[str, str], int]] = None,
) -> Tuple[Set[str], Set[str], int]:
    """One KL run: returns (side A, side B, cut bits).

    Starts from ``side_a`` (default: the first half of the operations in
    id order) and performs KL passes — sequences of tentative best-gain
    swaps with the best prefix committed — until a pass yields no
    improvement.  Side sizes are preserved exactly, as in the original
    formulation ("subgraphs with specified sizes").

    ``weights`` accepts a precomputed :func:`edge_weights` table for
    ``graph`` (see :func:`filter_weights` for deriving one per split
    level), sparing repeated O(values) derivations in sweep loops.
    """
    ops = sorted(graph.operations)
    if len(ops) < 2:
        raise PartitioningError("KL needs at least two operations")
    if side_a is None:
        side_a = set(ops[: len(ops) // 2])
    else:
        side_a = set(side_a)
        if not side_a or side_a >= set(ops):
            raise PartitioningError("side A must be a proper non-empty subset")
    side_b = set(ops) - side_a

    if weights is None:
        weights = edge_weights(graph)
    neighbour: Dict[str, Dict[str, int]] = {op: {} for op in ops}
    for (a, b), weight in weights.items():
        neighbour[a][b] = weight
        neighbour[b][a] = weight

    def d_value(op: str, a_side: Set[str]) -> int:
        """External minus internal connection weight of ``op``."""
        external = internal = 0
        mine = op in a_side
        for other, weight in neighbour[op].items():
            if (other in a_side) == mine:
                internal += weight
            else:
                external += weight
        return external - internal

    for _pass in range(max_passes):
        a_free = set(side_a)
        b_free = set(side_b)
        d = {op: d_value(op, side_a) for op in ops}
        gains: List[int] = []
        swaps: List[Tuple[str, str]] = []
        while a_free and b_free:
            best: Optional[Tuple[int, str, str]] = None
            for a_op in sorted(a_free):
                for b_op in sorted(b_free):
                    gain = (
                        d[a_op] + d[b_op]
                        - 2 * neighbour[a_op].get(b_op, 0)
                    )
                    if best is None or gain > best[0]:
                        best = (gain, a_op, b_op)
            assert best is not None
            gain, a_op, b_op = best
            gains.append(gain)
            swaps.append((a_op, b_op))
            a_free.discard(a_op)
            b_free.discard(b_op)
            # Update D values as if the pair were swapped.
            for op in sorted(a_free):
                d[op] += 2 * neighbour[op].get(a_op, 0)
                d[op] -= 2 * neighbour[op].get(b_op, 0)
            for op in sorted(b_free):
                d[op] += 2 * neighbour[op].get(b_op, 0)
                d[op] -= 2 * neighbour[op].get(a_op, 0)

        # Best prefix of the tentative swap sequence.
        best_total = 0
        best_k = 0
        running = 0
        for k, gain in enumerate(gains, start=1):
            running += gain
            if running > best_total:
                best_total = running
                best_k = k
        if best_k == 0:
            break
        for a_op, b_op in swaps[:best_k]:
            side_a.discard(a_op)
            side_a.add(b_op)
            side_b.discard(b_op)
            side_b.add(a_op)
    return side_a, side_b, cut_bits(graph, side_a, weights=weights)


def recursive_bisection(
    graph: DataFlowGraph,
    count: int,
    weights: Optional[Dict[Tuple[str, str], int]] = None,
) -> List[Set[str]]:
    """``count`` roughly equal parts by repeated KL bisection.

    Splits the largest remaining part until ``count`` parts exist.  The
    parts minimise cut bits, not CHOP feasibility — that contrast is the
    point of the baseline.

    ``weights`` is the graph's precomputed :func:`edge_weights` table;
    each split level sees it filtered down (:func:`filter_weights`)
    instead of re-deriving subgraph weights from the value table — the
    same fix the ``cut_bits`` callers got.  When omitted, the table is
    computed once here and shared across all splits.
    """
    if count < 1:
        raise PartitioningError(f"count must be >= 1, got {count}")
    if count > graph.op_count():
        raise PartitioningError(
            f"cannot split {graph.op_count()} operations into {count} parts"
        )
    if weights is None:
        weights = edge_weights(graph)
    parts: List[Set[str]] = [set(graph.operations)]
    while len(parts) < count:
        parts.sort(key=len, reverse=True)
        largest = parts.pop(0)
        if len(largest) < 2:
            raise PartitioningError(
                "ran out of splittable parts during recursive bisection"
            )
        ordered = sorted(largest)
        seed = set(ordered[: len(ordered) // 2])
        sub = graph.subgraph_ops(largest)
        side_a, side_b, _cut = kl_bipartition(
            sub, seed, weights=filter_weights(weights, largest)
        )
        parts.extend([side_a, side_b])
    return sorted(parts, key=lambda part: min(part))
