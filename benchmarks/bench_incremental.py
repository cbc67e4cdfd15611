"""Cold check vs warm re-check through the eval context.

Replays the paper's designer loop (section 2.7) on a long multiply-add
chain cut into 8 partitions: check, migrate one boundary operation to
the next partition, re-check.  The cold check predicts every partition
from scratch; the warm re-check predicts only the two partitions the
migration touched, plus one task-graph build.  Both runs gate on two
things, each checked on every warm re-check:

* identity — the result is byte-identical to a fresh session
  evaluating the same partitioning from scratch;
* reuse — the eval context's counters (``ChopSession.eval_stats()``)
  move by exactly :data:`EXPECTED_REUSE`: the 6 untouched partitions
  are served from the context, the 2 touched ones are predicted, and
  the task graph is built once.

Timings are medians over ``--reps`` independent cold/warm cycles (one
check is tens of milliseconds, so single-shot ratios are noisy).  The
cold/warm ``speedup`` is reported and trajectory-checked, not gated: it
moves with the predictor's speed (a faster BAD shrinks the cold check
and with it the ratio), while the reuse counts say what the context
saves on any host.  ``--smoke`` shrinks the loop so CI stays fast.

Run directly (no pytest needed)::

    python benchmarks/bench_incremental.py            # full
    python benchmarks/bench_incremental.py --smoke    # CI mode

Writes ``benchmarks/results/incremental_speedup.txt`` and a
machine-readable ``benchmarks/results/BENCH_incremental.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"),
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

STAGES = 36
PARTITIONS = 8

#: ``eval_stats()`` deltas of one warm re-check after one boundary
#: migration: the 6 untouched partitions' pruned lists are hits, the 2
#: touched partitions miss their raw and pruned lists, and the new
#: partitioning gets one task-graph build.
EXPECTED_REUSE = {"hits": 6, "misses": 4, "taskgraph_builds": 1}


def chain_graph(stages: int):
    """A multiply-accumulate chain: acc = acc * k[i] + x[i]."""
    from repro.dfg.builders import GraphBuilder

    builder = GraphBuilder(f"chain{stages}", default_width=16)
    xs = [builder.input(f"x{i}") for i in range(stages)]
    ks = [builder.input(f"k{i}") for i in range(stages)]
    acc = xs[0]
    for i in range(stages):
        acc = builder.add(
            builder.mul(acc, ks[i], name=f"m{i}"), xs[i], name=f"a{i}"
        )
    builder.output(acc)
    return builder.build()


def build_session(stages: int = STAGES, parts: int = PARTITIONS):
    from repro.bad.styles import (
        ArchitectureStyle, ClockScheme, OperationTiming,
    )
    from repro.chips.presets import mosis_package
    from repro.core.chop import ChopSession
    from repro.core.feasibility import FeasibilityCriteria
    from repro.core.schemes import horizontal_cut

    from repro.library.presets import extended_library

    graph = chain_graph(stages)
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0, dp_multiplier=10),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=400_000.0, delay_ns=400_000.0
        ),
    )
    parts_list = horizontal_cut(graph, parts)
    assignment = {}
    for index, part in enumerate(parts_list):
        chip = f"chip{index + 1}"
        session.add_chip(chip, mosis_package(2))
        assignment[part.name] = chip
    session.set_partitions(parts_list, assignment)
    return session


def boundary_migration(session) -> bool:
    """Move one producer-boundary op into the next partition.

    On a chain cut into horizontal bands the last operation of band k
    feeds only band k+1, so migrating it keeps the flow one-way; the
    first such move that validates is applied.  Deterministic, so every
    rep times the same designer edit.
    """
    from repro.errors import PartitioningError

    names = sorted(session._partitions)
    for src, dst in zip(names, names[1:]):
        for op in sorted(session._partitions[src].op_ids):
            successors = session.graph.successors(op)
            if successors and all(
                c in session._partitions[dst].op_ids
                for c in successors
            ):
                try:
                    session.migrate_operations(src, dst, [op])
                    return True
                except PartitioningError:
                    continue
    return False


def reuse_delta(before: dict, after: dict) -> dict:
    """The :data:`EXPECTED_REUSE` counters moved between two stats."""
    return {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "taskgraph_builds": after["taskgraph"]["full_builds"]
        - before["taskgraph"]["full_builds"],
    }


def timed_recheck(session):
    """``(result, wall seconds, eval_stats delta)`` of one re-check."""
    before = session.eval_stats()
    started = time.perf_counter()
    result = session.check()
    elapsed = time.perf_counter() - started
    return result, elapsed, reuse_delta(before, session.eval_stats())


def comparable(result) -> dict:
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


def fresh_check(session):
    """A from-scratch session holding the same partitioning."""
    clone = build_session()
    clone.set_partitions(
        list(session._partitions.values()),
        dict(session._partition_chip),
    )
    return clone.check()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer cycles and moves, same gates (the CI mode)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="cold/warm cycles to median over (default 7, or 2 with "
        "--smoke)",
    )
    parser.add_argument(
        "--moves", type=int, default=None,
        help="designer-loop length for the per-move table (default 6, "
        "or 2 with --smoke)",
    )
    args = parser.parse_args(argv)

    reps = args.reps or (2 if args.smoke else 7)
    moves = args.moves or (2 if args.smoke else 6)

    failures = []
    deltas = []

    # Phase 1 — one migration, cold vs warm, median over independent
    # cycles.
    colds, warms = [], []
    for _ in range(reps):
        session = build_session()
        started = time.perf_counter()
        session.check()
        colds.append(time.perf_counter() - started)
        if not boundary_migration(session):
            failures.append("no legal boundary migration found")
            break
        warm_result, elapsed, delta = timed_recheck(session)
        warms.append(elapsed)
        deltas.append(delta)
        if comparable(warm_result) != comparable(fresh_check(session)):
            failures.append(
                "warm re-check differs from a fresh session"
            )
            break
    cold_s = statistics.median(colds)
    warm_s = statistics.median(warms) if warms else float("inf")
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    # Phase 2 — an N-move designer loop on one long-lived session:
    # per-move warm wall-clock plus the context's own counters.
    session = build_session()
    session.check()
    move_rows = []
    for move in range(1, moves + 1):
        if not boundary_migration(session):
            failures.append(f"designer loop stalled at move {move}")
            break
        result, elapsed, delta = timed_recheck(session)
        deltas.append(delta)
        if comparable(result) != comparable(fresh_check(session)):
            failures.append(f"move {move} differs from fresh session")
            break
        move_rows.append((move, elapsed, result.feasible_trials, delta))
    stats = session.eval_stats()
    off = [d for d in deltas if d != EXPECTED_REUSE]
    reuse_ok = bool(deltas) and not off

    graph_ops = STAGES * 2
    lines = [
        f"Incremental re-evaluation — {graph_ops}-op chain, "
        f"{PARTITIONS} partitions, median of {reps} cycles",
        "",
        f"cold check        {cold_s * 1000:>8.1f} ms",
        f"warm re-check     {warm_s * 1000:>8.1f} ms  "
        f"(one migrate_operations)",
        f"speedup           {speedup:>8.2f} x",
        "",
        f"designer loop ({len(move_rows)} moves on one session):",
        f"{'move':>6} {'wall ms':>9} {'feasible':>9} {'hits':>5} "
        f"{'misses':>7} {'builds':>7}",
    ]
    for move, elapsed, feasible, delta in move_rows:
        lines.append(
            f"{move:>6} {elapsed * 1000:>9.1f} {feasible:>9} "
            f"{delta['hits']:>5} {delta['misses']:>7} "
            f"{delta['taskgraph_builds']:>7}"
        )
    taskgraph = stats["taskgraph"]
    lines.append("")
    lines.append(
        f"context: {stats['hits']} hits, {stats['misses']} misses, "
        f"{taskgraph['full_builds']} task-graph builds "
        f"({taskgraph['pairs_rebuilt']} cut pairs), "
        f"{taskgraph['reuses']} reuses "
        f"({taskgraph['pairs_reused']} cut pairs)"
    )
    lines.append(
        f"reuse: {len(deltas) - len(off)} of {len(deltas)} warm re-checks "
        f"moved the context by {EXPECTED_REUSE}"
        + ("" if reuse_ok else f"; FAILED, e.g. {off[:1]}")
    )
    lines.append(
        "identity: "
        + ("FAILED: " + "; ".join(failures) if failures else
           "every warm re-check byte-identical to a fresh session")
    )
    table = "\n".join(lines)
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "incremental_speedup.txt")
    with open(out_path, "w") as handle:
        handle.write(table + "\n")
    print(f"\nwrote {out_path}")

    json_doc = {
        "bench": "incremental_recheck",
        "graph_ops": graph_ops,
        "partitions": PARTITIONS,
        "reps": reps,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 3),
        "identity_ok": not failures,
        "reuse_ok": reuse_ok,
        "expected_reuse": EXPECTED_REUSE,
        "designer_loop": [
            {
                "move": move,
                "wall_s": round(elapsed, 6),
                "feasible": feasible,
                **delta,
            }
            for move, elapsed, feasible, delta in move_rows
        ],
        "context": {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "evictions": stats["evictions"],
            "taskgraph_full_builds": taskgraph["full_builds"],
            "taskgraph_reuses": taskgraph["reuses"],
            "taskgraph_pairs_rebuilt": taskgraph["pairs_rebuilt"],
            "taskgraph_pairs_reused": taskgraph["pairs_reused"],
        },
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_incremental.json")
    with open(json_path, "w") as handle:
        json.dump(json_doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")

    return 1 if failures or not reuse_ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
