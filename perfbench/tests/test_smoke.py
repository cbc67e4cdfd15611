"""Self-checks of the benchmark at tiny sizes (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("bad_large", "designer_loop", "auto_1000", "service_mix")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    sys.path.insert(0, BENCH)
    try:
        from run import END_TO_END, WORKLOADS as RUN_WORKLOADS
        from spans import PER_LAYER
    finally:
        sys.path.remove(BENCH)
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(RUN_WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears(workload, trace):
    proc = run(
        "--workload", workload, "--scale", "smoke", "--seconds", "0.1",
        "--trace", str(trace),
    )
    out = result(proc)
    header = json.loads(proc.stdout.splitlines()[0])
    assert set(header["wall"]) == {
        "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s",
    }
    assert header["yardstick_ms"]["median"] > 0
    table = "per_layer" if trace else "end_to_end"
    names = [metric["name"] for metric in spec()[table]]
    assert sorted(out["metrics"]) == sorted(names)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for metric in spec()[table]:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name in ("throughput_ops_s", "latency_p50_ms", "setup_s"):
            assert out["metrics"][name]["value"] > 0


def copy_benchmark(tmp_path):
    """BENCHMARK.json and perfbench/ copied into ``tmp_path``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def test_corrupted_digest_counts_as_an_error(tmp_path):
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["bad_large|fft4_multi"] = "0" * 64
    path.write_text(json.dumps(expected))
    out = result(run(
        "--workload", "bad_large", "--scale", "smoke", "--seconds", "0.1",
        cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"),
    ))
    assert not out["correct"]
    assert out["failed"] >= 1
    assert out["metrics"]["success_ratio"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(
        "--workload", "bad_large", "--seconds", "1", cwd=tmp_path,
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
