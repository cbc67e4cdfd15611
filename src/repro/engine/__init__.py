"""repro.engine — the parallel batch-evaluation engine.

Every combination-search path in the system funnels through this
package: :mod:`~repro.engine.sharding` addresses the cross-product space
by flat index, :mod:`~repro.engine.workers` evaluates index ranges in a
process pool when the space repays it (degrading gracefully to
in-process serial execution), and :mod:`~repro.engine.merge`
recombines shard results deterministically.  See ``docs/engine.md`` for the architecture and the
failure/degradation matrix.
"""

from repro.engine.merge import ShardResult, merge_shard_results
from repro.engine.sharding import (
    Shard,
    combination_count,
    decode_combination,
    plan_shards,
)
from repro.engine.workers import (
    EnginePlan,
    EngineRun,
    EvaluationEngine,
    EvaluationProblem,
    evaluate_range,
)

__all__ = [
    "EnginePlan",
    "EngineRun",
    "EvaluationEngine",
    "EvaluationProblem",
    "Shard",
    "ShardResult",
    "combination_count",
    "decode_combination",
    "evaluate_range",
    "merge_shard_results",
    "plan_shards",
]
