#!/usr/bin/env python
"""Compare fresh ``BENCH_*.json`` artifacts against committed baselines.

CI regenerates the machine-readable benchmark artifacts on every run
(smoke mode), then calls this checker with the *committed* copies as the
baseline.  The point is trajectory, not absolutes: wall-clock numbers
move with the runner, so the specs below compare machine-independent
ratios (cold/warm speedups), quality metrics (cut bits), and invariant
booleans (equivalence, identity, SLO gates) — each with an explicit
direction and a generous tolerance band.

Rules per metric kind:

* ``true``   — the fresh value must be exactly ``True`` (baseline not
  consulted); these are correctness gates, never tolerated.
* ``exact``  — fresh must equal baseline exactly (deterministic counts).
* ``higher`` — fresh must be ``>= baseline * (1 - tol)``.
* ``lower``  — fresh must be ``<= baseline * (1 + tol)``.

Numeric comparisons are skipped (with a note) when either side lacks
the metric, or when the two runs disagree on their ``smoke`` flag —
smoke runs shrink the workload, so quality numbers are not comparable
across modes.  ``cases[*].<path>`` specs align list entries by their
``(graph, chips)`` identity and compare only the intersection.

Usage::

    python benchmarks/check_bench_trajectory.py \
        --baseline-dir /tmp/baseline --fresh-dir benchmarks/results
    python benchmarks/check_bench_trajectory.py --self-test

``--self-test`` feeds the checker a seeded synthetic regression and a
clean pair, asserting it fails the former and passes the latter.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Check:
    path: str            # dotted path; "cases[*]." prefix fans out
    kind: str            # true | exact | higher | lower
    tol: float = 0.0     # fractional band for higher/lower
    same_mode: bool = False  # skip unless smoke flags match


SPECS: Dict[str, List[Check]] = {
    "BENCH_service.json": [
        Check("gates_ok", "true"),
        Check("slo_ok", "true"),
        # Serving throughput and tail latency drift with the runner;
        # only a gross regression (>60% rps loss, >4x p95) fails.
        Check("rps", "higher", tol=0.6),
        Check("p95_ms", "lower", tol=3.0),
    ],
    "BENCH_incremental.json": [
        Check("identity_ok", "true"),
        # Each warm re-check reused exactly the untouched partitions.
        Check("reuse_ok", "true"),
        # cold/warm ratio on the same machine — host speed cancels.
        Check("speedup", "higher", tol=0.6),
    ],
    "BENCH_parallel.json": [
        Check("equivalence_ok", "true"),
    ],
    "BENCH_explore.json": [
        Check("gates_ok", "true"),
        Check("front_points", "exact"),
        Check("speedup", "higher", tol=0.6),
    ],
    "BENCH_auto.json": [
        Check("cases[*].auto.feasible", "true"),
        Check("cases[*].auto.chop_valid", "true"),
        # Partition quality is deterministic per (graph, chips) but the
        # smoke workload differs from the full one.
        Check("cases[*].auto.cut_bits", "lower", tol=0.25,
              same_mode=True),
    ],
}


def dig(doc, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def case_key(case: dict) -> Tuple:
    return (case.get("graph"), case.get("chips"))


def fan_out(
    fresh: dict, baseline: dict, path: str
) -> List[Tuple[str, object, object]]:
    """Resolve a spec path to [(label, fresh_value, baseline_value)]."""
    if not path.startswith("cases[*]."):
        return [(path, dig(fresh, path), dig(baseline, path))]
    sub = path[len("cases[*]."):]
    base_by_key = {
        case_key(c): c for c in baseline.get("cases", [])
        if isinstance(c, dict)
    }
    resolved = []
    for case in fresh.get("cases", []):
        if not isinstance(case, dict):
            continue
        key = case_key(case)
        label = f"cases[{key[0]},chips={key[1]}].{sub}"
        twin = base_by_key.get(key)
        resolved.append((
            label,
            dig(case, sub),
            dig(twin, sub) if twin is not None else None,
        ))
    return resolved


def compare_file(
    name: str, fresh: dict, baseline: Optional[dict]
) -> Tuple[List[str], List[str]]:
    """Returns ``(problems, notes)`` for one artifact."""
    problems: List[str] = []
    notes: List[str] = []
    modes_match = (
        baseline is not None
        and fresh.get("smoke") == baseline.get("smoke")
    )
    for check in SPECS[name]:
        pairs = fan_out(fresh, baseline or {}, check.path)
        if not pairs:
            problems.append(f"{name}: no entries match {check.path}")
        for label, fresh_value, base_value in pairs:
            where = f"{name}: {label}"
            if check.kind == "true":
                if fresh_value is not True:
                    problems.append(
                        f"{where} must be true, got {fresh_value!r}"
                    )
                continue
            if fresh_value is None:
                problems.append(f"{where} missing from fresh run")
                continue
            if baseline is None or base_value is None:
                notes.append(f"{where}: no baseline value, skipped")
                continue
            if check.same_mode and not modes_match:
                notes.append(
                    f"{where}: smoke flags differ, skipped"
                )
                continue
            if check.kind == "exact":
                if fresh_value != base_value:
                    problems.append(
                        f"{where} changed: {base_value!r} -> "
                        f"{fresh_value!r}"
                    )
            elif check.kind == "higher":
                floor = base_value * (1.0 - check.tol)
                if fresh_value < floor:
                    problems.append(
                        f"{where} regressed: {fresh_value} < "
                        f"{floor:.4g} (baseline {base_value}, "
                        f"tol {check.tol:.0%})"
                    )
            elif check.kind == "lower":
                ceiling = base_value * (1.0 + check.tol)
                if fresh_value > ceiling:
                    problems.append(
                        f"{where} regressed: {fresh_value} > "
                        f"{ceiling:.4g} (baseline {base_value}, "
                        f"tol {check.tol:.0%})"
                    )
            else:  # pragma: no cover - spec typo guard
                problems.append(
                    f"{where}: unknown check kind {check.kind!r}"
                )
    return problems, notes


def load(path: pathlib.Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"unreadable {path}: {exc}")


def run_compare(
    baseline_dir: pathlib.Path, fresh_dir: pathlib.Path
) -> int:
    problems: List[str] = []
    compared = 0
    for name in sorted(SPECS):
        fresh = load(fresh_dir / name)
        if fresh is None:
            print(f"SKIP {name}: not produced by this run")
            continue
        baseline = load(baseline_dir / name)
        if baseline is None:
            print(f"NOTE {name}: no committed baseline, gates only")
        compared += 1
        file_problems, notes = compare_file(name, fresh, baseline)
        for note in notes:
            print(f"NOTE {note}")
        problems.extend(file_problems)
    if compared == 0:
        print("FAIL no BENCH_*.json artifacts found to compare")
        return 1
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"{len(problems)} regression(s) across {compared} file(s)")
        return 1
    print(f"OK {compared} benchmark file(s) within the tolerance band")
    return 0


def self_test() -> int:
    """Seeded synthetic regression must fail; clean pair must pass."""
    baseline = {
        "BENCH_incremental.json": {
            "speedup": 4.0, "identity_ok": True, "reuse_ok": True,
        },
        "BENCH_service.json": {
            "rps": 1000.0, "p95_ms": 1.0, "gates_ok": True,
            "slo_ok": True,
        },
    }
    regressed = {
        "BENCH_incremental.json": {
            # speedup collapsed below the 60% band, identity broken,
            # a partition re-predicted that the context should serve.
            "speedup": 1.0, "identity_ok": False, "reuse_ok": False,
        },
        "BENCH_service.json": {
            # p95 blew past the 4x ceiling.
            "rps": 900.0, "p95_ms": 9.0, "gates_ok": True,
            "slo_ok": True,
        },
    }
    healthy = {
        "BENCH_incremental.json": {
            # within band: 40% slower speedup, still above the floor.
            "speedup": 2.4, "identity_ok": True, "reuse_ok": True,
        },
        "BENCH_service.json": {
            "rps": 800.0, "p95_ms": 2.5, "gates_ok": True,
            "slo_ok": True,
        },
    }

    def materialise(root: pathlib.Path, docs: dict) -> pathlib.Path:
        root.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            (root / name).write_text(json.dumps(doc))
        return root

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        base_dir = materialise(tmp_path / "baseline", baseline)
        bad_dir = materialise(tmp_path / "regressed", regressed)
        good_dir = materialise(tmp_path / "healthy", healthy)

        print("-- self-test: seeded regression (must FAIL) --")
        if run_compare(base_dir, bad_dir) == 0:
            print("SELF-TEST FAIL: regression went undetected")
            return 1
        print("-- self-test: healthy run (must PASS) --")
        if run_compare(base_dir, good_dir) != 0:
            print("SELF-TEST FAIL: healthy run flagged")
            return 1
    print("SELF-TEST OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path,
        help="directory holding committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir", type=pathlib.Path,
        help="directory holding artifacts from this run",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the checker detects a seeded synthetic regression",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.baseline_dir is None or args.fresh_dir is None:
        parser.error(
            "--baseline-dir and --fresh-dir are required unless "
            "--self-test is given"
        )
    return run_compare(args.baseline_dir, args.fresh_dir)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
