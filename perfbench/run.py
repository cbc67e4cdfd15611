"""The CHOP reproduction's benchmark: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload designer_loop --seed 3 --seconds 20
    python3 perfbench/run.py --workload bad_large --trace 1   # per-layer run
    python3 perfbench/run.py --workload all                   # every workload
    python3 perfbench/run.py --regen          # rewrite perfbench/expected.json

A run prints a header line (seed, nproc, Python and numpy versions, the
op definition), one line per metric with its unit, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    DEFAULT_SEED,
    EXPECTED_PATH,
    ROOT,
    SETUP_MIN_S,
    SETUP_REPEATS,
    SLICE_S,
    YARDSTICK_S,
    Op,
    ProgramMissing,
    Yardstick,
    import_program,
    load_expected,
    percentile,
)

WORKLOADS = ("bad_large", "designer_loop", "auto_1000", "service_mix")

#: The end-to-end metrics, (name, unit), as BENCHMARK.json lists them.
END_TO_END: List[Tuple[str, str]] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SPANS_DIR = os.path.join(ROOT, ".perfbench")


def measure(wl, seconds: float, yard: Yardstick,
            passes: Optional[int] = None,
            tracer=None) -> Tuple[List[Op], int]:
    """Run whole passes for ``seconds`` (or exactly ``passes`` passes).

    Only the op thunk is timed; verification runs after its timer stops.
    After every ``SLICE_S`` of op time the ops since the last scaling are
    scaled to yardstick-host time (see ``common.Yardstick``).
    """
    ops: List[Op] = []
    pending: List[Op] = []
    since = 0.0
    done = 0
    yard.restart()
    started = time.perf_counter()
    while True:
        for kind, thunk in wl.passes(done):
            index = len(ops)
            if tracer is not None:
                tracer.op_id = index
                span = tracer.open("op")
            error = None
            if wl.sample_inside:
                yard.start()
            began = time.perf_counter()
            try:
                key, output = thunk()
            except Exception as exc:  # an op failure is a measured outcome
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            if wl.sample_inside:
                elapsed -= yard.stop()
            if tracer is not None:
                tracer.close(span)
            if error is None:
                error = wl.verify(index, key, output)
            op = Op(kind, elapsed, error)
            ops.append(op)
            pending.append(op)
            since += elapsed
            if since >= SLICE_S:
                settle(pending, yard.scale())
                since = 0.0
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif (
            time.perf_counter() - started >= seconds
            and len(ops) >= wl.min_ops
        ):
            break
    settle(pending, yard.scale())
    for index, error in wl.finish().items():
        ops[index].error = ops[index].error or error
    return ops, done


def settle(pending: List[Op], factor: float) -> None:
    for op in pending:
        op.seconds = op.wall * factor
    pending.clear()


def timings(seconds: List[float]) -> Dict[str, float]:
    return {
        "throughput_ops_s": len(seconds) / sum(seconds),
        "latency_p50_ms": statistics.median(seconds) * 1000.0,
        "latency_p90_ms": percentile(seconds, 90) * 1000.0,
    }


def end_to_end(ops: List[Op], setup_times: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    failed = sum(1 for op in ops if op.error)
    return {
        **timings([op.seconds for op in ops]),
        "success_ratio": 1.0 - failed / len(ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def set_up(module, seed: int, scale: str, expected, yard: Yardstick,
           walls: Optional[List[float]] = None,
           scaled: Optional[List[float]] = None):
    """Build a workload; record its set-up's wall and yardstick times."""
    wl = module.Workload(seed=seed, scale=scale, expected=expected)
    yard.restart()
    if wl.sample_inside:
        yard.start()
    began = time.perf_counter()
    try:
        wl.setup()
    except BaseException:
        wl.close()  # a half-built set-up may already own a server
        raise
    finally:
        wall = time.perf_counter() - began
        if wl.sample_inside:
            wall -= yard.stop()
    if walls is not None:
        walls.append(wall)
        scaled.append(wall * yard.scale())
    return wl


def run_workload(args) -> int:
    import_program()
    from spans import PER_LAYER, Tracer, install, layer_metrics

    module = importlib.import_module(args.workload)
    expected = load_expected(EXPECTED_PATH)
    yard = Yardstick()

    setup_walls: List[float] = []
    setup_times: List[float] = []
    wl = None
    while (
        len(setup_walls) < SETUP_REPEATS
        or sum(setup_walls) < SETUP_MIN_S
    ):
        # Free the previous set-up before the next, so peak RSS holds
        # one set-up plus the run, never two set-ups at once.
        if wl is not None:
            wl.close()
            wl = None
            gc.collect()
        wl = set_up(module, args.seed, args.scale, expected, yard,
                    setup_walls, setup_times)
    try:
        # A traced run replays every pass it measured untraced, so it
        # measures for half as long and takes about as long as a plain run.
        ops, passes = measure(
            wl, args.seconds / 2 if args.trace else args.seconds, yard
        )
        wall = {
            **timings([op.wall for op in ops]),
            "setup_s": statistics.median(setup_walls),
        }
        if not args.trace:
            metrics = end_to_end(ops, setup_times, wl.peak_rss_mb())
            units = dict(END_TO_END)
        else:
            # The untraced run above is the overhead baseline; replay the
            # same passes, from a fresh set-up, with every layer wrapped.
            wl.close()
            wl = None
            gc.collect()
            wl = set_up(module, args.seed, args.scale, expected, yard)
            tracer = Tracer()
            before = wl.snapshot()
            if wl.wrap_program:
                install(tracer)
            wl.tracer = tracer
            try:
                traced, _ = measure(wl, args.seconds, yard, passes, tracer)
            finally:
                tracer.restore()
                wl.tracer = None
            extra = wl.extras(before, traced)
            extra["trace.overhead_ratio"] = (
                sum(op.seconds for op in traced)
                / sum(op.seconds for op in ops)
            )
            metrics = layer_metrics(tracer, len(traced), extra)
            units = {name: unit for name, unit, _better in PER_LAYER}
            os.makedirs(SPANS_DIR, exist_ok=True)
            tracer.write(os.path.join(
                SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.bin"
            ))
            ops = ops + traced
    finally:
        if wl is not None:
            wl.close()

    failures = [op.error for op in ops if op.error]
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "op": wl.op_definition,
        "verification": wl.verification,
        "passes": passes,
        "errors": failures[:5],
        # The same timings unscaled, and the host's speed as read.
        "wall": wall,
        "yardstick_ms": {
            "nominal": YARDSTICK_S * 1000.0,
            "median": statistics.median(yard.readings) * 1000.0,
            "min": min(yard.readings) * 1000.0,
            "max": max(yard.readings) * 1000.0,
        },
    }
    print(json.dumps(header))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        print(f"== {name}", flush=True)
        status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def regen(args) -> int:
    """Rewrite the expected digests from scratch (review the diff)."""
    import_program()
    expected: Dict[str, str] = {}
    for name in WORKLOADS:
        module = importlib.import_module(name)
        wl = module.Workload(seed=DEFAULT_SEED, scale="full", expected={})
        expected.update(wl.regen())
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} digests to {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: a subset of each workload's cases (self-check only)",
    )
    parser.add_argument("--regen", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.regen:
            return regen(args)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
