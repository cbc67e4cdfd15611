"""Cold check vs warm re-check through the eval context.

Replays the paper's designer loop (section 2.7) on a long multiply-add
chain cut into 8 partitions: check, migrate one boundary operation to
the next partition, re-check.  The cold check predicts every partition
from scratch; the warm re-check predicts only the two partitions the
migration touched, plus one task-graph build.  Every warm
result is asserted byte-identical to a fresh session evaluating the
same partitioning from scratch.

Timings are medians over ``--reps`` independent cold/warm cycles (one
check is a couple hundred milliseconds, so single-shot ratios are
noisy).  The full run gates on a >= 3x median warm speedup; ``--smoke``
keeps every identity assertion but skips the timing gate and shrinks
the loop, so CI stays fast and timing-independent.

Run directly (no pytest needed)::

    python benchmarks/bench_incremental.py            # full, gated
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
SPEEDUP_GATE = 3.0


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
        help="identity checks only, no timing gate (the CI mode)",
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

    # Phase 1 — the gated measurement: one migration, cold vs warm,
    # median over independent cycles.
    colds, warms = [], []
    for _ in range(reps):
        session = build_session()
        started = time.perf_counter()
        session.check()
        colds.append(time.perf_counter() - started)
        if not boundary_migration(session):
            failures.append("no legal boundary migration found")
            break
        started = time.perf_counter()
        warm_result = session.check()
        warms.append(time.perf_counter() - started)
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
        started = time.perf_counter()
        result = session.check()
        elapsed = time.perf_counter() - started
        if comparable(result) != comparable(fresh_check(session)):
            failures.append(f"move {move} differs from fresh session")
            break
        move_rows.append((move, elapsed, result.feasible_trials))
    stats = session.eval_stats()

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
        f"{'move':>6} {'wall ms':>9} {'feasible':>9}",
    ]
    for move, elapsed, feasible in move_rows:
        lines.append(
            f"{move:>6} {elapsed * 1000:>9.1f} {feasible:>9}"
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
        "designer_loop": [
            {
                "move": move,
                "wall_s": round(elapsed, 6),
                "feasible": feasible,
            }
            for move, elapsed, feasible in move_rows
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

    if failures:
        return 1
    if not args.smoke and speedup < SPEEDUP_GATE:
        print(
            f"FAILED: expected >= {SPEEDUP_GATE}x warm speedup, "
            f"measured {speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
