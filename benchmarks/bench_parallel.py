"""Serial vs engine-sharded enumeration on the largest example spec.

Measures the wall-clock of the same combination walk run serially and
through :class:`repro.engine.EvaluationEngine` at increasing worker
counts, asserting byte-identical results at every width, and records the
table into ``benchmarks/results/parallel_speedup.txt`` plus a
machine-readable ``benchmarks/results/BENCH_parallel.json`` (per worker
count: wall seconds and combinations/second).

Run directly (no pytest needed)::

    python benchmarks/bench_parallel.py            # full: 2/4/8 workers
    python benchmarks/bench_parallel.py --smoke    # CI: equivalence only

The full run additionally asserts a >= 2x speedup at 4 workers — but
only on machines that actually have 4 cores; on smaller hosts (and in
``--smoke`` mode) the table is still produced and the equivalence
check still gates, because correctness does not need cores.
"""

from __future__ import annotations

import argparse
import json
import os
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
SPEC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples", "specs",
    "moving_average.chop")


def build_session():
    """The bench workload: the 8-tap moving average over 3 chips."""
    from repro.bad.styles import (
        ArchitectureStyle, ClockScheme, OperationTiming,
    )
    from repro.chips.presets import mosis_package
    from repro.core.chop import ChopSession
    from repro.core.feasibility import FeasibilityCriteria
    from repro.core.schemes import horizontal_cut
    from repro.dfg.parser import parse_spec
    from repro.library.presets import extended_library
    from repro.memory.module import MemoryModule

    with open(SPEC) as handle:
        graph = parse_spec(handle.read())
    blocks = sorted(
        {
            op.memory_block
            for op in graph
            if getattr(op, "memory_block", None)
        }
    )
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=120_000.0, delay_ns=120_000.0
        ),
        memories=[
            MemoryModule(name, 256, 16, off_the_shelf=True)
            for name in blocks
        ],
    )
    parts = horizontal_cut(graph, 3)
    assignment = {}
    for index, part in enumerate(parts):
        chip = f"chip{index + 1}"
        session.add_chip(chip, mosis_package(2))
        assignment[part.name] = chip
    session.set_partitions(parts, assignment)
    return session


def comparable(result) -> dict:
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


def timed_check(session, prune: bool, engine=None):
    started = time.perf_counter()
    result = session.check(
        heuristic="enumeration", prune=prune, engine=engine
    )
    return result, time.perf_counter() - started


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="pruned workload, 2 workers, no speedup assertion "
        "(the CI mode)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to measure (default: 2 4 8, or 2 with "
        "--smoke)",
    )
    args = parser.parse_args(argv)

    import repro.engine.workers as workers_module
    from repro.engine import EvaluationEngine

    # Measure the pool itself, even on a space the engine would
    # otherwise keep in process.
    workers_module.MIN_COMBINATIONS = 1

    widths = args.workers or ([2] if args.smoke else [2, 4, 8])
    # --smoke keeps the level-1 pruned space (fast, still parallel);
    # the full bench searches the raw prediction lists, the workload
    # whose 61-second flavour the paper measured in section 3.1.
    prune = bool(args.smoke)

    session = build_session()
    # Predict once up front so every timing below measures the
    # combination walk alone, never BAD prediction.
    session.predict_all()

    serial_result, serial_s = timed_check(session, prune)
    reference = comparable(serial_result)
    rows = [("serial", 1, serial_s, 1.0, "-")]
    failures = []
    for workers in widths:
        engine = EvaluationEngine(workers=workers)
        result, elapsed = timed_check(session, prune, engine=engine)
        if comparable(result) != reference:
            failures.append(
                f"{workers}-worker result differs from serial"
            )
        stats = engine.stats()
        mode = (
            "parallel" if stats["searches_parallel"] else "serial"
        )
        speedup = serial_s / elapsed if elapsed > 0 else float("inf")
        rows.append((mode, workers, elapsed, speedup,
                     stats["last_utilization"]))

    lines = [
        f"Parallel enumeration speedup — moving_average.chop, "
        f"3 partitions, {serial_result.trials} combinations "
        f"({'pruned' if prune else 'raw'} predictions), "
        f"host cores: {os.cpu_count()}",
        "",
        f"{'mode':<10} {'workers':>7} {'wall s':>8} {'speedup':>8} "
        f"{'utilization':>12}",
    ]
    for mode, workers, elapsed, speedup, utilization in rows:
        lines.append(
            f"{mode:<10} {workers:>7} {elapsed:>8.3f} {speedup:>7.2f}x "
            f"{str(utilization):>12}"
        )
    lines.append("")
    lines.append(
        "equivalence: "
        + ("FAILED: " + "; ".join(failures) if failures else
           "all worker counts byte-identical to serial")
    )
    table = "\n".join(lines)
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "parallel_speedup.txt")
    with open(out_path, "w") as handle:
        handle.write(table + "\n")
    print(f"\nwrote {out_path}")

    combinations = serial_result.trials
    json_doc = {
        "bench": "parallel_enumeration",
        "spec": "moving_average.chop",
        "partitions": 3,
        "combinations": combinations,
        "pruned": prune,
        "host_cores": os.cpu_count(),
        "equivalence_ok": not failures,
        "runs": [
            {
                "mode": mode,
                "workers": workers,
                "wall_s": round(elapsed, 6),
                "combos_per_s": (
                    round(combinations / elapsed, 1)
                    if elapsed > 0 else None
                ),
                "speedup": round(speedup, 3),
                "utilization": (
                    utilization if utilization != "-" else None
                ),
            }
            for mode, workers, elapsed, speedup, utilization in rows
        ],
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_parallel.json")
    with open(json_path, "w") as handle:
        json.dump(json_doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")

    if failures:
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1
    if not args.smoke and 4 in widths and (os.cpu_count() or 1) >= 4:
        at4 = next(r for r in rows if r[1] == 4 and r[0] != "serial")
        if at4[3] < 2.0:
            print(
                f"FAILED: expected >= 2x speedup at 4 workers on a "
                f"{os.cpu_count()}-core host, measured {at4[3]:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
