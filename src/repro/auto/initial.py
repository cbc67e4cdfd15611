"""Initial k-way partitioning of the coarsest cluster graph.

The assignment produced here — and preserved by every later refinement
move — is a *chain partitioning*: parts are ordered ``0..k-1`` and every
edge ``u -> v`` satisfies ``part(u) <= part(v)``.  The quotient graph of
a chain partitioning is a subgraph of the path ``0 -> 1 -> ... -> k-1``,
hence acyclic, so every level of the hierarchy projects to a
:class:`repro.core.partitioning.Partitioning` CHOP accepts without
repair surgery (the section 2.3 requirement).

Chains are exactly what CHOP's own :func:`repro.core.schemes.horizontal_cut`
produces from ASAP levels; here the intervals are cut through a
topological order of *clusters* weighted by operation count, which both
respects balance and keeps heavy intra-cluster edges uncut for free.
"""

from __future__ import annotations

from typing import Dict, List

from repro.auto.coarsen import ClusterGraph
from repro.errors import PartitioningError


def topo_interval_split(cg: ClusterGraph, parts: int) -> Dict[int, int]:
    """Assign clusters to ``parts`` contiguous topological intervals.

    Walks the deterministic topological order accumulating operation
    weight and starts a new part whenever the running part has reached
    its proportional share of the remaining weight — the greedy
    balance rule, guaranteed to leave every part non-empty because a
    part is only closed while enough clusters remain for those after it.
    """
    if parts < 1:
        raise PartitioningError(f"parts must be >= 1, got {parts}")
    if parts > len(cg):
        raise PartitioningError(
            f"cannot split {len(cg)} clusters into {parts} parts"
        )
    order = cg.topological_order()
    total = cg.total_weight()
    part_of: Dict[int, int] = {}
    part = 0
    filled = 0
    taken = 0
    for position, cluster in enumerate(order):
        part_of[cluster] = part
        filled += cg.weight(cluster)
        taken += 1
        remaining_clusters = len(order) - position - 1
        remaining_parts = parts - part - 1
        target = (total * (part + 1)) / parts
        if part < parts - 1 and (
            filled >= target or remaining_clusters == remaining_parts
        ):
            part += 1
    return part_of


def part_weights(cg: ClusterGraph, part_of: Dict[int, int], parts: int) -> List[int]:
    """Operation count per part under an assignment."""
    weights = [0] * parts
    for cluster, part in part_of.items():
        weights[part] += cg.weight(cluster)
    return weights


def verify_chain(cg: ClusterGraph, part_of: Dict[int, int]) -> None:
    """Assert the chain invariant; raises on any violating edge.

    Cheap (O(E)); :func:`repro.auto.auto_partition` runs it after
    refining every level.  A violation means a legality-check bug that
    would surface later as an opaque ``PartitioningError`` from CHOP's
    validator.
    """
    for u, targets in cg.succ.items():
        for v in targets:
            if part_of[u] > part_of[v]:
                raise PartitioningError(
                    f"chain invariant violated: edge {u}->{v} runs from "
                    f"part {part_of[u]} to part {part_of[v]}"
                )
