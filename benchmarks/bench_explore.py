"""Cold vs warm design-space sweeps, plus Pareto-front quality gates.

Sweeps a generated 200-operation layered DFG over chip counts 1-4 with
``repro.explore`` twice against the same disk prediction cache: the
cold sweep predicts every candidate partition through BAD and persists
the lists; the warm sweep seeds every candidate from disk and pays only
for pruning + search.  Timings are medians over ``--reps`` independent
cold/warm cycles (each cycle gets a fresh cache directory).

Gates (the acceptance criteria of the explore subsystem):

* the front is non-degenerate — at least 3 non-dominated points
  spanning at least 2 distinct chip counts;
* every front point's embedded project document re-loads through
  ``load_project`` and re-checks feasible, with the same best design;
* the warm sweep returns the identical front (modulo the
  ``cache_seeded`` counter); and
* (full mode only) the median warm sweep is >= 3x faster than cold.

``--smoke`` keeps every correctness gate but skips the timing gate and
runs one cycle, so CI stays fast and timing-independent.

Run directly (no pytest needed)::

    python benchmarks/bench_explore.py            # full, gated
    python benchmarks/bench_explore.py --smoke    # CI mode

Writes ``benchmarks/results/explore_front.txt`` and a machine-readable
``benchmarks/results/BENCH_explore.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"),
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

OPS = 200
SEED = 7
CHIP_COUNTS = (1, 2, 3, 4)
SPEEDUP_GATE = 3.0
MIN_FRONT_POINTS = 3
MIN_CHIP_SPAN = 2


def build_graph():
    from repro.dfg.builders import generate_dfg

    return generate_dfg("layered", OPS, seed=SEED)


def run_sweep(graph, cache):
    from repro.explore import ExploreConfig, explore

    config = ExploreConfig(chip_counts=CHIP_COUNTS)
    return explore(graph, config, disk_cache=cache)


def comparable(result) -> dict:
    """The sweep's dict with the cold/warm-dependent counter removed."""
    doc = result.to_dict()
    doc.pop("cache_seeded", None)
    return doc


def front_failures(result) -> List[str]:
    """Check the non-degeneracy and round-trip gates on one sweep."""
    from repro.io.project import load_project

    failures: List[str] = []
    front = result.front
    if len(front) < MIN_FRONT_POINTS:
        failures.append(
            f"front has {len(front)} points, expected >= "
            f"{MIN_FRONT_POINTS}"
        )
    chip_span = {point.chips for point in front}
    if len(chip_span) < MIN_CHIP_SPAN:
        failures.append(
            f"front spans {len(chip_span)} chip counts "
            f"({sorted(chip_span)}), expected >= {MIN_CHIP_SPAN}"
        )
    for point in front:
        session = load_project(point.project)
        check = session.check()
        if not check.feasible:
            failures.append(
                f"front point k={point.chips} s={point.package_scale:g} "
                f"re-checked infeasible"
            )
            continue
        best = check.best()
        if (best.ii_main, best.delay_main) != (
            point.ii_main, point.delay_main
        ):
            failures.append(
                f"front point k={point.chips} "
                f"s={point.package_scale:g}: re-checked best "
                f"(II {best.ii_main}, delay {best.delay_main}) != swept "
                f"(II {point.ii_main}, delay {point.delay_main})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="correctness gates only, no timing gate (the CI mode)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="cold/warm cycles to median over (default 3, or 1 with "
        "--smoke)",
    )
    args = parser.parse_args(argv)
    reps = args.reps or (1 if args.smoke else 3)

    graph = build_graph()
    failures: List[str] = []
    colds: List[float] = []
    warms: List[float] = []
    cold_result = None

    from repro.cache import DiskPredictionCache

    for _ in range(reps):
        with tempfile.TemporaryDirectory() as directory:
            cache = DiskPredictionCache(directory)
            started = time.perf_counter()
            cold = run_sweep(graph, cache)
            colds.append(time.perf_counter() - started)
            started = time.perf_counter()
            warm = run_sweep(graph, cache)
            warms.append(time.perf_counter() - started)
            if cold_result is None:
                cold_result = cold
            if warm.cache_seeded == 0:
                failures.append(
                    "warm sweep seeded nothing from the disk cache"
                )
            if comparable(warm) != comparable(cold):
                failures.append(
                    "warm sweep result differs from cold sweep"
                )
    cold_s = statistics.median(colds)
    warm_s = statistics.median(warms)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    failures.extend(front_failures(cold_result))
    front = cold_result.front

    lines = [
        f"Design-space sweep — {OPS}-op layered DFG (seed {SEED}), "
        f"chip counts {list(CHIP_COUNTS)}, median of {reps} cycles",
        "",
        f"cold sweep        {cold_s * 1000:>8.1f} ms  "
        f"({cold_result.evaluated} candidates, BAD predicts everything)",
        f"warm sweep        {warm_s * 1000:>8.1f} ms  "
        f"(predictions seeded from the disk cache)",
        f"speedup           {speedup:>8.2f} x",
        "",
        f"Pareto front over (cost, performance, delay, chips) — "
        f"{len(front)} points:",
        f"{'chips':>6} {'scale':>6} {'cost $':>10} {'perf ns':>9} "
        f"{'delay ns':>9} {'II':>4}",
    ]
    for point in front:
        lines.append(
            f"{point.chips:>6} {point.package_scale:>6g} "
            f"{point.cost:>10.2f} {point.performance_ns:>9.0f} "
            f"{point.delay_ns:>9.0f} {point.ii_main:>4}"
        )
    lines.append("")
    lines.append(
        "gates: "
        + ("FAILED: " + "; ".join(failures) if failures else
           f"front >= {MIN_FRONT_POINTS} points over >= "
           f"{MIN_CHIP_SPAN} chip counts; every point re-checks "
           f"feasible via load_project; warm == cold")
    )
    table = "\n".join(lines)
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "explore_front.txt")
    with open(out_path, "w") as handle:
        handle.write(table + "\n")
    print(f"\nwrote {out_path}")

    json_doc = {
        "bench": "explore_sweep",
        "graph_ops": OPS,
        "seed": SEED,
        "chip_counts": list(CHIP_COUNTS),
        "reps": reps,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 3),
        "front_points": len(front),
        "chip_span": sorted({point.chips for point in front}),
        "gates_ok": not failures,
        "front": [
            point.to_dict(
                cold_result.config.objectives, include_project=False
            )
            for point in front
        ],
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_explore.json")
    with open(json_path, "w") as handle:
        json.dump(json_doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")

    if failures:
        print("FAILED: " + "; ".join(failures))
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
