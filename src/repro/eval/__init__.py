"""repro.eval — the evaluation core under the designer loop.

One `EvaluationContext` per design owns the predict → prune →
task-graph pipeline that `ChopSession`, both search heuristics, the
process-pool engine and the baselines previously each re-ran from
scratch.  Prediction caches are keyed on partition *content* and
bounded by one LRU capacity; a small LRU store keeps, per partitioning
state, the task graph `repro.core.tasks.build_task_graph` built and,
from the state's second check on, its integration plan with every memo
— see ``docs/evaluation.md``.
"""

from repro.eval.context import DEFAULT_CACHE_CAPACITY, EvaluationContext

__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "EvaluationContext",
]
