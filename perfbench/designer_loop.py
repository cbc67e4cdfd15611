"""``designer_loop``: the section 2.7 loop on the paper's own cells.

Each cell is one experiment session of the paper (experiment 1 at
package 1 and 2 with k = 1, 2, 3; experiment 2 with k = 3, 4, 5).  An op
moves one boundary operation and re-checks: a sink operation of Pi (one
with no consumer inside Pi) goes to Pi+1, and the next op on that cell
moves it back.  k = 1 cells have no boundary and are re-checked without
a mutation.  The integration walk and the evaluation layer's
invalidate-and-rebuild path dominate; BAD runs only on partition
contents the session has not seen yet, which is the first visit to each
move (every cell has at most four, so every run makes all of them).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from common import HEURISTICS, OpThunk, WorkloadBase, verdict_doc

#: (cell, experiment, package, partition count).
CELLS: List[Tuple[str, int, int, int]] = [
    (f"exp1_pkg{pkg}_k{k}", 1, pkg, k) for pkg in (1, 2) for k in (1, 2, 3)
] + [(f"exp2_k{k}", 2, 2, k) for k in (3, 4, 5)]
SMOKE_CELLS = ("exp1_pkg2_k1", "exp1_pkg2_k2", "exp2_k3")

Move = Tuple[str, str, str]  # (from partition, to partition, op id)


def build_cell(experiment: int, package: int, k: int):
    from repro.experiments.setups import (
        experiment1_session,
        experiment2_session,
    )

    if experiment == 1:
        return experiment1_session(package_number=package, partition_count=k)
    return experiment2_session(partition_count=k)


def sink_moves(session) -> List[Move]:
    """One migration per boundary: the first sink op of Pi (in id order)
    moved to Pi+1.  A boundary's sink ops are mostly symmetric copies of
    one another (same operation type, mostly the same verdict), so one
    stands for all, and a run of 20 passes revisits each move at least
    four times."""
    partitioning = session.partitioning()
    names = sorted(partitioning.partitions)
    moves: List[Move] = []
    for src, dst in zip(names, names[1:]):
        ops = partitioning.partitions[src].op_ids
        if len(ops) < 2:
            continue
        sinks = [
            op for op in sorted(ops)
            if not any(c in ops for c in session.graph.successors(op))
        ]
        if sinks:
            moves.append((src, dst, sinks[0]))
    return moves


def state_key(cell: str, move, heuristic: str) -> str:
    state = "base" if move is None else "{}>{}:{}".format(*move)
    return f"designer_loop|{cell}|{state}|{heuristic}"


class Workload(WorkloadBase):
    op_definition = (
        "one seeded boundary migration (a sink op of Pi to Pi+1, checked "
        "with the iterative heuristic) or the move back (checked with "
        "enumeration), as migrate_operations plus ChopSession.check on one "
        "paper cell; k=1 cells are re-checked without a mutation.  A pass "
        "is one migration and one move back (or two re-checks) on each of "
        "the 9 cells; the seed rotates each cell over its boundaries"
    )
    min_ops = 100

    def setup(self) -> None:
        cells = [
            cell for cell in CELLS
            if self.scale != "smoke" or cell[0] in SMOKE_CELLS
        ]
        if self.scale == "smoke":
            self.min_ops = 1
        self.sessions = {}
        self.moves: Dict[str, List[Move]] = {}
        for cell, experiment, package, k in cells:
            session = build_cell(experiment, package, k)
            for heuristic in HEURISTICS:
                session.check(heuristic=heuristic)
            self.sessions[cell] = session
            self.moves[cell] = sink_moves(session)
        self.rng = random.Random(self.seed)
        self.offsets = {
            cell: self.rng.randrange(max(len(moves), 1))
            for cell, moves in self.moves.items()
        }

    def passes(self, index: int) -> Iterator[OpThunk]:
        # Every pass holds the same (cell, heuristic) mix whatever the
        # seed; the seed picks the order, and where in its rotation over
        # the cell's boundary moves each cell starts, so any run of four
        # passes visits every move.  The migration is checked with the
        # iterative heuristic and the move back with enumeration, so the
        # enumeration tail (exp2 k=5) always walks the same base
        # partitioning and does not vary with the seed.
        first = list(self.sessions)
        second = list(self.sessions)
        self.rng.shuffle(first)
        self.rng.shuffle(second)
        chosen = {}
        for cell in first:
            moves = self.moves[cell]
            if moves:
                move = moves[(self.offsets[cell] + index) % len(moves)]
                chosen[cell] = move
                yield "migrate|{}|{}>{}:{}".format(cell, *move), self._op(
                    cell, move, "iterative"
                )
            else:
                yield f"recheck|{cell}|iterative", self._op(
                    cell, None, "iterative"
                )
        for cell in second:
            if cell in chosen:
                src, dst, op = chosen[cell]
                yield f"move_back|{cell}|{dst}>{src}:{op}", self._op(
                    cell, None, "enumeration", undo=(dst, src, op)
                )
            else:
                yield f"recheck|{cell}|enumeration", self._op(
                    cell, None, "enumeration"
                )

    def _op(self, cell: str, move, heuristic: str, undo=None):
        session = self.sessions[cell]
        migration = move or undo

        def run():
            if migration is not None:
                src, dst, op = migration
                session.migrate_operations(src, dst, [op])
            result = session.check(heuristic=heuristic)
            return (
                state_key(cell, move, heuristic),
                verdict_doc(result.to_dict()),
            )

        return run

    def snapshot(self):
        totals = {
            "hits": 0, "misses": 0, "invalidations": 0,
            "pairs_rebuilt": 0, "pairs_reused": 0,
        }
        for session in self.sessions.values():
            stats = session.eval_stats()
            totals["hits"] += stats["hits"]
            totals["misses"] += stats["misses"]
            totals["invalidations"] += stats["invalidations"]
            totals["pairs_rebuilt"] += stats["taskgraph"]["pairs_rebuilt"]
            totals["pairs_reused"] += stats["taskgraph"]["pairs_reused"]
        return totals

    def extras(self, before, ops) -> Dict[str, float]:
        after = self.snapshot()
        delta = {key: after[key] - before[key] for key in after}
        lookups = delta["hits"] + delta["misses"]
        count = max(len(ops), 1)
        return {
            "eval.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "eval.invalidations": delta["invalidations"] / count,
            "eval.pairs_rebuilt": delta["pairs_rebuilt"] / count,
            "eval.pairs_reused": delta["pairs_reused"] / count,
        }

    def regen(self) -> Dict[str, str]:
        """Each state checked on a fresh session, so the expectations
        also pin the incremental path to the from-scratch one."""
        out = {}
        for cell, experiment, package, k in CELLS:
            base = build_cell(experiment, package, k)
            for heuristic in HEURISTICS:
                result = base.check(heuristic=heuristic)
                out[state_key(cell, None, heuristic)] = self.digest(
                    verdict_doc(result.to_dict())
                )
            for move in sink_moves(base):
                session = build_cell(experiment, package, k)
                session.migrate_operations(move[0], move[1], [move[2]])
                result = session.check(heuristic="iterative")
                out[state_key(cell, move, "iterative")] = self.digest(
                    verdict_doc(result.to_dict())
                )
        return out
