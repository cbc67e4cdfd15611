"""Property-based tests for FM refinement against its bucket-loop oracle.

``reference_fm_refine`` is the refinement loop as it stood before
:func:`repro.auto.refine.fm_refine` moved onto index tables, legality
counters and one gain heap: a dict of gain buckets, each re-sorted on
every pop, with legality and gains re-derived from the cluster graph on
every push.  The property requires the two to agree exactly, at every
level of generated hierarchies: the same assignment and the same
:class:`RefineStats`, ``moves_tried`` included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.auto.coarsen import ClusterGraph
from repro.auto.initial import part_weights
from repro.auto.refine import (
    RefineStats,
    _legal_targets,
    _move_gain,
    fm_refine,
)
from repro.dfg.builders import generate_dfg
from tests.test_auto_refine_golden import refine_levels


def reference_fm_refine(
    cg: ClusterGraph,
    part_of: Dict[int, int],
    parts: int,
    balance_tolerance: float = 0.3,
    max_passes: int = 8,
    stats: Optional[RefineStats] = None,
) -> Dict[int, int]:
    """The gain-bucket FM loop, kept as the oracle of ``fm_refine``."""
    if stats is None:
        stats = RefineStats()
    total = cg.total_weight()
    max_part = max(1.0, (1.0 + balance_tolerance) * total / parts)
    min_part = max(1, total // (2 * parts))
    stats.cut_before = cg.cut_bits(part_of)

    for _pass in range(max_passes):
        stats.passes += 1
        weights = part_weights(cg, part_of, parts)
        locked: Set[int] = set()
        buckets: Dict[int, List[Tuple[int, int]]] = {}

        def push(cluster: int) -> None:
            for target in _legal_targets(cg, part_of, cluster, parts):
                gain = _move_gain(cg, part_of, cluster, target)
                buckets.setdefault(gain, []).append((cluster, target))

        for cluster in cg.members:
            push(cluster)

        trail: List[Tuple[int, int, int, int]] = []
        running = 0
        best_running = 0
        best_len = 0
        while buckets:
            top = max(buckets)
            entries = buckets[top]
            entries.sort()
            cluster, target = entries.pop(0)
            if not entries:
                del buckets[top]
            if cluster in locked:
                continue
            here = part_of[cluster]
            if target not in _legal_targets(cg, part_of, cluster, parts):
                continue
            if _move_gain(cg, part_of, cluster, target) != top:
                push(cluster)
                continue
            if weights[target] + cg.weight(cluster) > max_part:
                continue
            if weights[here] - cg.weight(cluster) < min_part:
                continue
            stats.moves_tried += 1
            part_of[cluster] = target
            weights[here] -= cg.weight(cluster)
            weights[target] += cg.weight(cluster)
            locked.add(cluster)
            trail.append((cluster, here, target, top))
            running += top
            if running > best_running:
                best_running = running
                best_len = len(trail)
            for neighbour_map in (
                cg.succ.get(cluster, {}),
                cg.pred.get(cluster, {}),
            ):
                for other in neighbour_map:
                    if other not in locked:
                        push(other)

        for cluster, here, _target, _gain in reversed(trail[best_len:]):
            part_of[cluster] = here
        stats.moves_committed += best_len
        if best_len == 0:
            break

    stats.cut_after = cg.cut_bits(part_of)
    return part_of


@given(
    kind=st.sampled_from(["layered", "chain", "butterfly"]),
    ops=st.integers(min_value=10, max_value=240),
    seed=st.integers(min_value=0, max_value=50),
    chips=st.integers(min_value=1, max_value=6),
    tolerance=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    clusters_per_part=st.sampled_from([2, 8]),
    max_passes=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_fm_refine_matches_the_bucket_loop(
    kind, ops, seed, chips, tolerance, clusters_per_part, max_passes
):
    graph = generate_dfg(kind, ops, seed=seed)
    runs = [
        refine_levels(
            graph, chips, tolerance, clusters_per_part=clusters_per_part,
            max_passes=max_passes, refine=refine,
        )
        for refine in (reference_fm_refine, fm_refine)
    ]
    reference, change = (
        [(part_of, stats) for _cg, part_of, stats in levels]
        for levels in runs
    )
    assert change == reference
