"""Golden BAD corpus: exact prediction lists, pinned by digest.

Each case's prediction list is pickled with protocol 4 and hashed with
sha256 (the digest the benchmark verifies, too).  The cases are every
partition of the paper's nine cells (experiment 1 at packages 1 and 2
with k = 1..3, experiment 2 with k = 3..5) plus predictor paths the
paper cells never take: port-capped memory classes, scan design, input
arrival times, single-style architectures and chaining turned off.  Two
whole-graph predictions of generated 250-op graphs under the
auto-partitioner's library, clocks and style pin the large chained
partitions ``repro.auto`` schedules, where one timing key meets dozens of
allocations.  A whole-graph fft4 under the extended library and the
multi-cycle style pins many module sets sharing a few timing keys (27
module sets over 3 timings), where half the (module set, design) builds
repeat one that another allocation of the same timing already gave.

A refactor of ``repro.bad`` must leave every digest unchanged.  A
deliberate model change rewrites the file, and its diff is reviewed like
code::

    PYTHONPATH=src python tests/test_bad_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.auto.partitioner import default_auto_session
from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.dfg.benchmarks import ar_lattice_filter, differential_equation
from repro.dfg.benchmarks_ext import fft_graph
from repro.dfg.builders import GraphBuilder, generate_dfg
from repro.experiments.setups import (
    experiment1_clocks,
    experiment1_session,
    experiment2_clocks,
    experiment2_session,
)
from repro.library.presets import extended_library, table1_library
from repro.memory.module import MemoryModule

GOLDEN = Path(__file__).parent / "golden" / "bad_predictions.json"

#: (cell, experiment, package, partition count) — the paper's cells.
PAPER_CELLS = [
    (f"exp1_pkg{pkg}_k{k}", 1, pkg, k) for pkg in (1, 2) for k in (1, 2, 3)
] + [(f"exp2_k{k}", 2, 2, k) for k in (3, 4, 5)]


def digest(predictions: List[object]) -> str:
    return hashlib.sha256(pickle.dumps(predictions, protocol=4)).hexdigest()


def _cell_partition(experiment: int, package: int, k: int, name: str):
    def run():
        if experiment == 1:
            session = experiment1_session(
                package_number=package, partition_count=k
            )
        else:
            session = experiment2_session(partition_count=k)
        return session.predict(name)

    return run


def _memory_graph():
    """Reads from a two-port block and a slow one-port block, combined
    and written back: more accesses than ports on both blocks."""
    b = GraphBuilder("membank", default_width=16)
    fast = [b.mem_read(b.input(f"a{i}"), "M") for i in range(6)]
    slow = [b.mem_read(b.input(f"s{i}"), "S") for i in range(2)]
    products = [b.mul(fast[i], fast[i + 3]) for i in range(3)]
    total = b.add(products[0], slow[0])
    total = b.add(total, products[1])
    total = b.add(total, products[2])
    total = b.add(total, slow[1], name="total")
    b.mem_write(total, "M")
    b.output(total)
    return b.build()


MEMORIES = {
    "M": MemoryModule("M", 64, 16, ports=2, access_time_ns=250.0),
    "S": MemoryModule("S", 64, 16, ports=1, access_time_ns=450.0),
}


def _auto_graph(kind: str, seed: int = 0):
    """Whole-graph prediction of a generated 250-op graph with the
    library, clocks and style ``default_auto_session`` gives it."""

    def run():
        graph = generate_dfg(kind, 250, seed=seed)
        session = default_auto_session(graph, chips=1)
        return BADPredictor(
            session.library, session.clocks, session.style
        ).predict_partition(graph)

    return run


def _predictor(library, clocks, timing, params=None, memories=None,
               **style):
    return BADPredictor(
        library, clocks, ArchitectureStyle(timing, **style),
        memories=memories, params=params,
    )


def cases() -> Dict[str, Callable[[], List[object]]]:
    """Every golden case, by name, as a thunk returning its predictions."""
    out: Dict[str, Callable[[], List[object]]] = {}
    for cell, experiment, package, k in PAPER_CELLS:
        for index in range(1, k + 1):
            out[f"{cell}|P{index}"] = _cell_partition(
                experiment, package, k, f"P{index}"
            )
    ar = ar_lattice_filter()
    diffeq = differential_equation()
    memory = _memory_graph()
    arrivals = {"dx": 3, "u": 1, "three": 0}
    single, multi = OperationTiming.SINGLE_CYCLE, OperationTiming.MULTI_CYCLE
    exp1, exp2 = experiment1_clocks(), experiment2_clocks()
    table1, extended = table1_library(), extended_library()
    out.update({
        "memory_multi": lambda: _predictor(
            extended, exp2, multi, memories=MEMORIES
        ).predict_partition(memory),
        "memory_single_chained": lambda: _predictor(
            extended, exp1, single, memories=MEMORIES
        ).predict_partition(memory),
        "scan_design": lambda: _predictor(
            table1, exp1, single, PredictorParameters(scan_design=True)
        ).predict_partition(ar),
        "arrivals_multi": lambda: _predictor(
            extended, exp2, multi
        ).predict_partition(diffeq, input_arrivals=arrivals),
        "arrivals_single_chained": lambda: _predictor(
            extended, exp1, single
        ).predict_partition(diffeq, input_arrivals=arrivals),
        "pipelined_only": lambda: _predictor(
            table1, exp2, multi, allow_nonpipelined=False
        ).predict_partition(ar),
        "nonpipelined_only": lambda: _predictor(
            table1, exp2, multi, allow_pipelined=False
        ).predict_partition(ar),
        "no_chaining": lambda: _predictor(
            table1, exp1, single, PredictorParameters(enable_chaining=False)
        ).predict_partition(ar),
        "auto_layered250_s7": _auto_graph("layered", seed=7),
        "auto_chain250": _auto_graph("chain"),
        "fft4_multi": lambda: _predictor(
            extended, ClockScheme(300.0), multi
        ).predict_partition(fft_graph(4)),
    })
    return out


CASES = cases()


def _expected() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_prediction_digest(case):
    assert digest(CASES[case]()) == _expected()[case]


def main(argv: List[str]) -> int:
    current = {case: digest(run()) for case, run in sorted(CASES.items())}
    if argv == ["--regen"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} digests to {GOLDEN}")
        return 0
    if argv:
        print("usage: test_bad_golden.py [--regen]", file=sys.stderr)
        return 2
    expected = _expected() if GOLDEN.exists() else {}
    changed = sorted(
        case for case in set(current) | set(expected)
        if current.get(case) != expected.get(case)
    )
    for case in changed:
        print(f"{case}: {expected.get(case)} -> {current.get(case)}")
    print(f"{len(current) - len(changed)}/{len(current)} digests unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
