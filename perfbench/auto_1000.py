"""``auto_1000``: default-config auto-partitioning of 1000-op graphs.

``auto_partition`` with k = 4 on a seeded random layered DAG and on the
filter-chain graph.  It exercises ``repro.auto`` (coarsen and refine)
and gives BAD a different profile from ``bad_large``: list scheduling of
~250-op partitions under the auto library dominates, not II probing.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from common import OpThunk, WorkloadBase

#: (generator kind, generator seed).  The generator seeds are fixed so
#: every run does the same work and every output has a committed digest.
CASES: List[Tuple[str, int]] = [("layered", 7), ("chain", 0)]
SMOKE_CASES: List[Tuple[str, int]] = [("chain", 0)]
OPS = 1000
CHIPS = 4


def case_key(kind: str, seed: int) -> str:
    return f"auto_1000|{kind}{OPS}s{seed}|k{CHIPS}"


class Workload(WorkloadBase):
    op_definition = (
        f"one auto_partition call (default config, k={CHIPS}) on a "
        f"{OPS}-op graph; a pass partitions the layered DAG and the "
        f"filter chain once each"
    )

    def setup(self) -> None:
        from repro.auto import AutoPartitionConfig, auto_partition
        from repro.dfg.builders import generate_dfg

        self.auto_partition = auto_partition
        self.config = AutoPartitionConfig
        cases = SMOKE_CASES if self.scale == "smoke" else CASES
        self.graphs = {
            case_key(kind, seed): generate_dfg(kind, OPS, seed=seed)
            for kind, seed in cases
        }
        # Warm lazy imports and first-call paths on a small graph.
        auto_partition(generate_dfg("layered", 60, seed=1),
                       AutoPartitionConfig(chips=CHIPS))
        self.rng = random.Random(self.seed)
        self.samples = []

    def passes(self, index: int) -> Iterator[OpThunk]:
        order = sorted(self.graphs)
        self.rng.shuffle(order)
        for key in order:
            yield key, self._op(key)

    def _op(self, key: str):
        graph = self.graphs[key]

        def run():
            tracer = self.tracer
            index = tracer.open("auto.partition") if tracer else None
            try:
                result = self.auto_partition(
                    graph, self.config(chips=CHIPS)
                )
            finally:
                if tracer:
                    tracer.close(index)
            if tracer:
                self.samples.append((
                    result.session.eval_stats(),
                    result.repair_moves,
                    result.levels,
                ))
            return key, result.to_dict()

        return run

    def snapshot(self):
        self.samples = []
        return None

    def extras(self, before, ops) -> Dict[str, float]:
        hits = misses = invalidations = rebuilt = reused = 0
        moves = levels = 0
        for stats, repair_moves, result_levels in self.samples:
            hits += stats["hits"]
            misses += stats["misses"]
            invalidations += stats["invalidations"]
            rebuilt += stats["taskgraph"]["pairs_rebuilt"]
            reused += stats["taskgraph"]["pairs_reused"]
            moves += repair_moves
            levels += result_levels
        count = max(len(self.samples), 1)
        lookups = hits + misses
        return {
            "eval.hit_ratio": hits / lookups if lookups else 0.0,
            "eval.invalidations": invalidations / count,
            "eval.pairs_rebuilt": rebuilt / count,
            "eval.pairs_reused": reused / count,
            "auto.repair_moves": moves / count,
            "auto.levels": levels / count,
        }

    def regen(self) -> Dict[str, str]:
        from repro.auto import AutoPartitionConfig, auto_partition
        from repro.dfg.builders import generate_dfg

        return {
            case_key(kind, seed): self.digest(
                auto_partition(
                    generate_dfg(kind, OPS, seed=seed),
                    AutoPartitionConfig(chips=CHIPS),
                ).to_dict()
            )
            for kind, seed in CASES
        }
