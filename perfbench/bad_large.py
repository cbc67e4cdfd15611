"""``bad_large``: cold BAD predictions of large single partitions.

What ``chop predict`` runs: one ``BADPredictor.predict_partition`` call
on a whole graph, with nothing cached.  BAD does almost all the work and
is II-probe and assembly bound here, while the walk, the evaluation
caches and the service sit idle.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from common import OpThunk, WorkloadBase, digest_pickle

#: (case, graph, points/taps, timing, datapath clock multiplier).
CASES: List[Tuple[str, str, int, str, int]] = [
    ("fft8_multi", "fft", 8, "multi", 1),
    ("fft4_multi", "fft", 4, "multi", 1),
    ("fir32_multi", "fir", 32, "multi", 1),
    ("fir32_single_chained", "fir", 32, "single", 10),
]
SMOKE_CASES = ("fft4_multi", "fir32_single_chained")


def _predictor_and_graph(kind: str, size: int, timing: str, dp: int):
    from repro.bad.predictor import BADPredictor
    from repro.bad.styles import (
        ArchitectureStyle,
        ClockScheme,
        OperationTiming,
    )
    from repro.dfg.benchmarks import fir_filter
    from repro.dfg.benchmarks_ext import fft_graph
    from repro.library.presets import extended_library

    graph = fft_graph(size) if kind == "fft" else fir_filter(size)
    style = ArchitectureStyle(
        OperationTiming.MULTI_CYCLE
        if timing == "multi"
        else OperationTiming.SINGLE_CYCLE
    )
    predictor = BADPredictor(
        extended_library(), ClockScheme(300.0, dp_multiplier=dp), style
    )
    return predictor, graph


class Workload(WorkloadBase):
    op_definition = (
        "one cold BADPredictor.predict_partition call on a whole graph "
        "(fft8 and fft4 multi-cycle, fir32 multi-cycle and single-cycle "
        "with chaining, extended library); a pass predicts each once"
    )

    def setup(self) -> None:
        cases = [
            case for case in CASES
            if self.scale != "smoke" or case[0] in SMOKE_CASES
        ]
        self.inputs = {
            case: _predictor_and_graph(*rest) for case, *rest in cases
        }
        # Warm the code paths (lazy imports, first-call costs) on a graph
        # too small to matter, so the first measured op is not penalised.
        predictor, _graph = self.inputs[cases[-1][0]]
        from repro.dfg.benchmarks_ext import fft_graph

        predictor.predict_partition(fft_graph(2))
        self.rng = random.Random(self.seed)

    def passes(self, index: int) -> Iterator[OpThunk]:
        order = sorted(self.inputs)
        self.rng.shuffle(order)
        for case in order:
            yield case, self._op(case)

    def _op(self, case: str):
        predictor, graph = self.inputs[case]

        def run():
            return f"bad_large|{case}", predictor.predict_partition(graph)

        return run

    def digest(self, output: object) -> str:
        return digest_pickle(output)

    def regen(self) -> Dict[str, str]:
        out = {}
        for case, *rest in CASES:
            predictor, graph = _predictor_and_graph(*rest)
            out[f"bad_large|{case}"] = digest_pickle(
                predictor.predict_partition(graph)
            )
        return out
