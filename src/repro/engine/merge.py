"""Deterministic merging of per-shard evaluation results.

Workers finish in scheduling-dependent order, but each shard is a
contiguous slice of the serial visit order, so sorting results by shard
start and concatenating their feasible lists is *provably* identical to
the serial enumeration — the property the parallel-equivalence tests
assert byte-for-byte.  The merge also verifies that the shards tile the
combination space exactly; a gap or overlap means an engine bug and
raises :class:`repro.errors.EngineError` rather than silently returning
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.engine.sharding import Shard
from repro.errors import EngineError
from repro.search.results import FeasibleDesign


@dataclass(slots=True)
class ShardResult:
    """What one worker hands back for one shard."""

    shard: Shard
    feasible: List[FeasibleDesign]
    trials: int
    elapsed_s: float = 0.0
    #: Finished span records built inside the worker process (traced
    #: runs only); the engine re-parents and replays them on merge.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def merge_shard_results(
    results: Iterable[ShardResult], expected_total: int
) -> Tuple[List[FeasibleDesign], int]:
    """Merge shard results into (feasible designs, trial count).

    ``expected_total`` is the combination-space size; the merged shards
    must tile ``[0, expected_total)`` exactly.
    """
    ordered = sorted(results, key=lambda r: r.shard.start)
    cursor = 0
    feasible: List[FeasibleDesign] = []
    trials = 0
    for result in ordered:
        if result.shard.start != cursor:
            raise EngineError(
                f"shard ranges do not tile the space: expected start "
                f"{cursor}, got [{result.shard.start}, "
                f"{result.shard.stop})"
            )
        cursor = result.shard.stop
        feasible.extend(result.feasible)
        trials += result.trials
    if cursor != expected_total:
        raise EngineError(
            f"shard ranges cover [0, {cursor}) but the space has "
            f"{expected_total} combinations"
        )
    return feasible, trials
