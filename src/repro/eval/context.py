"""The evaluation context.

:class:`EvaluationContext` is the single owner of everything the
predict → prune → task-graph pipeline computes for a design, keyed on
*partition content* (the operation-id set) rather than partition name.
It is the one evaluation core under the designer loop: `ChopSession`,
both search heuristics, the process-pool engine's problem builder, the
baselines and the serving layer all obtain their pruned predictions and
task graphs here.

Two prediction caches, both bounded by one LRU capacity:

* **raw predictions** — BAD's per-partition list, keyed on the op-id
  frozenset,
* **pruned predictions** — level-1 pruned lists, keyed on
  (content, usable area, drop_inferior) so `add_chip` self-invalidates.

A third, small LRU store keeps per-state entries, keyed on the
partition contents in order plus the partition, memory and chip
placement.  Each entry holds the state's task graph (from
:func:`repro.core.tasks.build_task_graph`) and, from the state's second
check on, its :class:`~repro.core.integration.IntegrationPlan` with
every memo, so a check that returns to a state checked before reuses
its schedules.  The store holds at most :data:`STATE_CAPACITY` states,
and a plan whose timing memo outgrows :data:`PLAN_TIMING_CAP` keys is
not kept.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.bad.prediction import DesignPrediction
from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.styles import ArchitectureStyle, ClockScheme
from repro.core.feasibility import FeasibilityCriteria
from repro.core.integration import IntegrationPlan
from repro.core.partition import Partition
from repro.core.partitioning import Partitioning
from repro.core.tasks import TaskGraph, build_task_graph
from repro.dfg.graph import DataFlowGraph
from repro.library.library import ComponentLibrary
from repro.memory.module import MemoryModule
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span

#: Default LRU bound for each per-content cache.  Sized for long service
#: sessions: hundreds of distinct partition contents fit, while a
#: pathological migrate-heavy client can no longer grow a session
#: without limit.
DEFAULT_CACHE_CAPACITY = 1024

#: States the store keeps.  A paper cell's base state and its four
#: boundary moves fit.
STATE_CAPACITY = 8

#: A plan whose timing memo holds more keys than this when its check
#: returns is not kept.  The pruned paper cells need at most 186 keys
#: (exp2 k=5, both heuristics); the unpruned exp2 k=3 walk, which the
#: service accepts as ``prune: false``, reaches 4,228.
PLAN_TIMING_CAP = 1024

ContentKey = FrozenSet[str]


class _State:
    """One store entry: a state's task graph, its cut-pair count, how
    many checks have asked for its plan, and the kept plan."""

    __slots__ = ("graph", "pairs", "checks", "plan")

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self.pairs = _cut_pairs(graph)
        self.checks = 0
        self.plan: Optional[IntegrationPlan] = None


class EvaluationContext:
    """Content-addressed prediction caches + the per-state store.

    Not thread-safe (matching :class:`~repro.core.chop.ChopSession`);
    the serving layer serializes access per session entry.
    """

    def __init__(
        self,
        graph: DataFlowGraph,
        library: ComponentLibrary,
        clocks: ClockScheme,
        style: ArchitectureStyle,
        criteria: FeasibilityCriteria,
        memories: Mapping[str, MemoryModule],
        predictor_params: Optional[PredictorParameters] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        self.graph = graph
        self.library = library
        self.clocks = clocks
        self.criteria = criteria
        self.capacity = cache_capacity
        self.predictor = BADPredictor(
            library=library,
            clocks=clocks,
            style=style,
            memories=dict(memories),
            params=predictor_params,
        )
        self._raw: "OrderedDict[ContentKey, List[DesignPrediction]]" = (
            OrderedDict()
        )
        self._pruned: "OrderedDict[Tuple, List[DesignPrediction]]" = (
            OrderedDict()
        )
        # -- the per-state store, least recently used first --
        self._states: "OrderedDict[Tuple, _State]" = OrderedDict()
        # -- counters (exported through stats() / the /metrics gauge) --
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._seeded = 0
        self._tg_full_builds = 0
        self._tg_reuses = 0
        self._pairs_reused = 0
        self._pairs_rebuilt = 0

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def _get(self, store: OrderedDict, key):
        entry = store.get(key)
        if entry is not None:
            store.move_to_end(key)
            self._hits += 1
        else:
            self._misses += 1
        return entry

    def _put(self, store: OrderedDict, key, value) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.capacity:
            store.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------
    def raw_predictions(
        self, name: str, partition: Partition
    ) -> List[DesignPrediction]:
        """BAD's raw prediction list for one partition content (cached).

        The returned list is the cache's own — callers that hand it out
        must copy (as :meth:`ChopSession.predict` does).
        """
        key = partition.op_ids
        cached = self._get(self._raw, key)
        if cached is None:
            cached = self.predictor.predict_partition(
                self.graph, partition.op_ids, name=name
            )
            self._put(self._raw, key, cached)
        return cached

    def seed_predictions(
        self, partition: Partition, predictions: Sequence[DesignPrediction]
    ) -> None:
        """Install persisted predictions for one partition content."""
        self._put(self._raw, partition.op_ids, list(predictions))
        self._seeded += 1

    def pruned_predictions(
        self,
        name: str,
        partition: Partition,
        usable_area_mil2: float,
        drop_inferior: bool = True,
    ) -> List[DesignPrediction]:
        """Level-1 pruned predictions for one partition content (cached).

        Keyed on (content, usable area, drop_inferior): a chip-set
        change that alters the optimistic usable area naturally misses
        and re-prunes, with the raw list still served from cache.
        """
        # Imported lazily: repro.search's package init reaches back up to
        # ChopSession (advisor), which already imports this module.
        from repro.search.pruning import level1_prune

        key = (partition.op_ids, usable_area_mil2, drop_inferior)
        cached = self._get(self._pruned, key)
        if cached is None:
            raw = self.raw_predictions(name, partition)
            cached = level1_prune(
                raw, self.criteria, self.clocks, usable_area_mil2,
                drop_inferior=drop_inferior,
            )
            self._put(self._pruned, key, cached)
        return cached

    def pruned_map(
        self,
        partitions: Mapping[str, Partition],
        usable_area_mil2: float,
        drop_inferior: bool = True,
    ) -> Dict[str, List[DesignPrediction]]:
        """Pruned predictions for a whole partitioning, traced.

        Emits an ``eval.context`` span whose ``hit``/``miss`` counters
        say how much of this check's prediction work was reused.
        """
        started = time.perf_counter()
        with trace_span(
            "eval.context", partitions=len(partitions)
        ) as sp:
            hits_before, misses_before = self._hits, self._misses
            out = {
                name: list(
                    self.pruned_predictions(
                        name, partition, usable_area_mil2,
                        drop_inferior=drop_inferior,
                    )
                )
                for name, partition in partitions.items()
            }
            hits = self._hits - hits_before
            misses = self._misses - misses_before
            sp.add("hit", hits)
            sp.add("miss", misses)
        # Warm maps answer from the prediction cache alone; cold maps
        # paid for at least one BAD prediction run.
        get_registry().histogram(
            "eval_pruned_map_seconds",
            "Whole-partitioning prediction-map latency by cache warmth",
            labelnames=("cache",),
        ).labels(cache="warm" if misses == 0 else "cold").observe(
            time.perf_counter() - started
        )
        return out

    def clear(self) -> None:
        """Drop every cache and the state store (benchmark cold paths)."""
        self._raw.clear()
        self._pruned.clear()
        self._states.clear()
        self._invalidations += 1

    # ------------------------------------------------------------------
    # the per-state store
    # ------------------------------------------------------------------
    def task_graph(self, partitioning: Partitioning) -> TaskGraph:
        """``build_task_graph(partitioning)``, kept in the state store.

        A state the store holds returns its kept graph (a hit); any
        other is built and stored, and the least recently used state
        leaves a full store.  A miss on a non-empty store counts as one
        invalidation: the partitioning left every state the context
        holds.  Emits an ``eval.taskgraph.delta`` span whose ``mode``
        is ``reused`` or ``full``; the ``pairs_reused`` and
        ``pairs_rebuilt`` stats count the cut partition pairs of every
        graph returned and built.
        """
        key = _state_key(partitioning)
        with trace_span("eval.taskgraph.delta") as sp:
            state = self._states.get(key)
            if state is not None:
                self._states.move_to_end(key)
                self._tg_reuses += 1
                self._pairs_reused += state.pairs
                sp.put("mode", "reused")
                return state.graph
            if self._states:
                self._invalidations += 1
            state = _State(build_task_graph(partitioning))
            self._states[key] = state
            if len(self._states) > STATE_CAPACITY:
                self._states.popitem(last=False)
            self._tg_full_builds += 1
            self._pairs_rebuilt += state.pairs
            sp.put("mode", "full")
            return state.graph

    def integration_plan(
        self, partitioning: Partitioning, task_graph: TaskGraph
    ) -> IntegrationPlan:
        """The plan one check of ``partitioning`` searches with.

        ``task_graph`` is what :meth:`task_graph` just returned for it.
        Counts the check against the state; returns the state's kept
        plan, or a fresh one that :meth:`keep_plan` may keep once the
        check returns.
        """
        state = self._states.get(_state_key(partitioning))
        if state is not None:
            state.checks += 1
            if state.plan is not None:
                return state.plan
        return IntegrationPlan(
            partitioning, task_graph, self.clocks, self.library
        )

    def keep_plan(self, plan: IntegrationPlan) -> None:
        """Keep ``plan`` for the next check of its state, once a check
        has returned: only from the state's second check on, and only
        while its timing memo holds at most :data:`PLAN_TIMING_CAP`
        keys."""
        state = self._states.get(_state_key(plan.partitioning))
        if state is not None:
            keep = state.checks >= 2 and plan.timing_keys <= PLAN_TIMING_CAP
            state.plan = plan if keep else None

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters for `/metrics` and the benchmark reports."""
        return {
            "capacity": self.capacity,
            "entries": {
                "raw": len(self._raw),
                "pruned": len(self._pruned),
                "states": len(self._states),
                "plans": sum(
                    state.plan is not None for state in self._states.values()
                ),
            },
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "seeded": self._seeded,
            "taskgraph": {
                "full_builds": self._tg_full_builds,
                "reuses": self._tg_reuses,
                "pairs_reused": self._pairs_reused,
                "pairs_rebuilt": self._pairs_rebuilt,
            },
        }


def _state_key(partitioning: Partitioning) -> Tuple:
    """The store key: partition contents in partition order, plus the
    partition, memory and chip placement."""
    return (
        tuple(
            (name, partition.op_ids)
            for name, partition in partitioning.partitions.items()
        ),
        tuple(sorted(partitioning.partition_chip.items())),
        tuple(sorted(partitioning.memory_chip.items())),
        tuple(sorted(partitioning.chips)),
    )


def _cut_pairs(graph: TaskGraph) -> int:
    """Cut (producer, consumer) partition pairs of a task graph.

    Each pair is one edge out of the producer's processing task: into
    the transfer task across chips, or straight into the consumer's
    processing task on one chip.  The only other such edges feed
    output tasks.
    """
    return sum(
        1
        for src, dst in graph.edges
        if src.startswith("pu:") and not dst.startswith("out:")
    )
