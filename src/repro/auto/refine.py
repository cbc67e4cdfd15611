"""FM-style refinement of a chain partitioning during uncoarsening.

Classic Fiduccia–Mattheyses adapted to the chain invariant of
:mod:`repro.auto.initial`: instead of arbitrary part moves, a cluster in
part ``i`` may only move to an *adjacent* part, and only when the move
keeps every edge pointing forward:

* ``i -> i+1`` is legal iff the cluster has no successor in part ``i``
  (all its predecessors are already at ``<= i``);
* ``i -> i-1`` is legal iff it has no predecessor in part ``i``.

Legal moves therefore preserve the invariant move-by-move, which keeps
the projected :class:`repro.core.partitioning.Partitioning` acyclic at
every step — refinement can never wander into territory CHOP rejects
structurally.

Gains are cut-bit deltas.  Each pass tentatively moves every movable
cluster once, highest gain first under a balance bound, then commits the
best prefix — negative-gain excursions included, which is what lets FM
climb out of the local minima a greedy hill-climber stalls in.

The bookkeeping is incremental.  A call numbers the clusters in id order
once and keeps, per cluster, how many of its successors and how many of
its predecessors share its part; a move's legality is then one counter
read, and every move and rollback updates the moved cluster's and its
neighbours' counts.  Proposed moves wait in one heap of
``(-gain, cluster, target)``, which pops the highest gain first and the
smallest ``(cluster, target)`` among equal gains.  Entries go stale as
neighbours move: a popped entry is re-validated, and one whose gain
changed re-queues its cluster at its current gains, which also gives a
move an earlier balance check refused another try.  A committed move's
gain is its exact cut delta, so the cut after refinement is the cut
before minus the committed gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.auto.coarsen import ClusterGraph


@dataclass
class RefineStats:
    """Counters for one :func:`fm_refine` call (reported in traces)."""

    passes: int = 0
    moves_tried: int = 0
    moves_committed: int = 0
    cut_before: int = 0
    cut_after: int = 0


def _move_gain(
    cg: ClusterGraph, part_of: Dict[int, int], cluster: int, target: int
) -> int:
    """Cut-bit reduction of moving ``cluster`` to ``target``."""
    here = part_of[cluster]
    gain = 0
    for neighbour_map in (cg.succ.get(cluster, {}), cg.pred.get(cluster, {})):
        for other, weight in neighbour_map.items():
            other_part = part_of[other]
            if other_part == here:
                gain -= weight  # becomes cut
            elif other_part == target:
                gain += weight  # no longer cut
    return gain


def _legal_targets(
    cg: ClusterGraph, part_of: Dict[int, int], cluster: int, parts: int
) -> List[int]:
    """Adjacent parts ``cluster`` may move to without breaking the chain."""
    here = part_of[cluster]
    targets: List[int] = []
    if here + 1 < parts and all(
        part_of[s] != here for s in cg.succ.get(cluster, {})
    ):
        targets.append(here + 1)
    if here - 1 >= 0 and all(
        part_of[p] != here for p in cg.pred.get(cluster, {})
    ):
        targets.append(here - 1)
    return targets


def fm_refine(
    cg: ClusterGraph,
    part_of: Dict[int, int],
    parts: int,
    balance_tolerance: float = 0.3,
    max_passes: int = 8,
    stats: Optional[RefineStats] = None,
) -> Dict[int, int]:
    """Refine ``part_of`` in place over ``cg``; returns it for chaining.

    ``balance_tolerance`` bounds every part at
    ``(1 + tolerance) * total / parts`` operations; moves that would
    overfill the target or empty the source are skipped.  Ends after
    ``max_passes`` or the first pass whose best prefix is empty.
    """
    if stats is None:
        stats = RefineStats()
    total = cg.total_weight()
    max_part = max(1.0, (1.0 + balance_tolerance) * total / parts)
    # Symmetric floor: no part may shrink below half its fair share —
    # without it FM happily drains a middle part to a handful of
    # operations whenever that trims the cut.
    min_part = max(1, total // (2 * parts))
    stats.cut_before = cut = cg.cut_bits(part_of)

    # Index tables: clusters numbered in ascending id order, so a tie
    # between numbers breaks as the tie between ids would.
    ids = sorted(cg.members)
    number = {cluster: i for i, cluster in enumerate(ids)}

    def numbered(
        adjacency: Dict[int, Dict[int, int]]
    ) -> List[List[Tuple[int, int]]]:
        return [
            [(number[o], w) for o, w in adjacency.get(c, {}).items()]
            for c in ids
        ]

    succ = numbered(cg.succ)
    pred = numbered(cg.pred)
    adjacent = [s + p for s, p in zip(succ, pred)]
    size = [cg.weight(c) for c in ids]
    part = [part_of[c] for c in ids]
    # Legality counters: successors (predecessors) sharing a cluster's
    # part.  A move up is legal at 0 of the first, a move down at 0 of
    # the second.
    succ_here = [0] * len(ids)
    pred_here = [0] * len(ids)
    for i, row in enumerate(succ):
        for other, _w in row:
            if part[other] == part[i]:
                succ_here[i] += 1
                pred_here[other] += 1

    def gain_of(i: int, target: int) -> int:
        here = part[i]
        gain = 0
        for other, weight in adjacent[i]:
            other_part = part[other]
            if other_part == here:
                gain -= weight  # becomes cut
            elif other_part == target:
                gain += weight  # no longer cut
        return gain

    def move(i: int, source: int, target: int) -> None:
        """Move cluster ``i``, keeping every legality counter exact."""
        part[i] = target
        succ_there = pred_there = 0
        for other, _w in succ[i]:
            if part[other] == source:
                pred_here[other] -= 1
            elif part[other] == target:
                pred_here[other] += 1
                succ_there += 1
        for other, _w in pred[i]:
            if part[other] == source:
                succ_here[other] -= 1
            elif part[other] == target:
                succ_here[other] += 1
                pred_there += 1
        succ_here[i] = succ_there
        pred_here[i] = pred_there

    for _pass in range(max_passes):
        stats.passes += 1
        weights = [0] * parts
        for i, p in enumerate(part):
            weights[p] += size[i]
        locked = [False] * len(ids)
        # Stale entries are re-validated on pop (see the module
        # docstring); duplicates are kept.
        heap: List[Tuple[int, int, int]] = []

        def push(i: int) -> None:
            here = part[i]
            if here + 1 < parts and not succ_here[i]:
                heappush(heap, (-gain_of(i, here + 1), i, here + 1))
            if here > 0 and not pred_here[i]:
                heappush(heap, (-gain_of(i, here - 1), i, here - 1))

        for i in range(len(ids)):
            push(i)

        trail: List[Tuple[int, int, int]] = []  # cluster, from, to
        running = 0
        best_running = 0
        best_len = 0
        while heap:
            neg_gain, i, target = heappop(heap)
            top = -neg_gain
            if locked[i]:
                continue
            here = part[i]
            # Re-validate the stale entry against current state.
            if succ_here[i] if target > here else pred_here[i]:
                continue
            if gain_of(i, target) != top:
                push(i)  # re-queue at its current gain
                continue
            if weights[target] + size[i] > max_part:
                continue
            if weights[here] - size[i] < min_part:
                continue
            stats.moves_tried += 1
            move(i, here, target)
            weights[here] -= size[i]
            weights[target] += size[i]
            locked[i] = True
            trail.append((i, here, target))
            running += top
            if running > best_running:
                best_running = running
                best_len = len(trail)
            # Neighbours' gains and legality changed: re-queue them.
            for other, _w in adjacent[i]:
                if not locked[other]:
                    push(other)

        # Roll back past the best prefix.
        for i, here, target in reversed(trail[best_len:]):
            move(i, target, here)
        cut -= best_running
        stats.moves_committed += best_len
        if best_len == 0:
            break

    for i, cluster in enumerate(ids):
        part_of[cluster] = part[i]
    stats.cut_after = cut
    return part_of


def project(
    part_of: Dict[int, int], projection: Dict[int, int]
) -> Dict[int, int]:
    """Lift a coarse-level assignment to the next finer level.

    ``projection`` maps finer cluster ids to coarse ids (as recorded by
    :class:`repro.auto.coarsen.CoarseLevel`); every finer cluster starts
    in its coarse parent's part.
    """
    return {fine: part_of[coarse] for fine, coarse in projection.items()}
