"""The incremental evaluation context.

:class:`EvaluationContext` is the single owner of everything the
predict → prune → task-graph pipeline computes per partition, keyed on
*partition content* (the operation-id set) rather than partition name.
It is the one evaluation core under the designer loop: `ChopSession`,
both search heuristics, the process-pool engine's problem builder, the
baselines and the serving layer all obtain their pruned predictions and
task graphs here.

Three cache families, all bounded by one LRU capacity:

* **raw predictions** — BAD's per-partition list, keyed on the op-id
  frozenset (the canonical content key; :meth:`content_hash` gives the
  stable hex digest for external storage),
* **pruned predictions** — level-1 pruned lists, keyed on
  (content, usable area, drop_inferior) so `add_chip` self-invalidates,
* **memory profiles** — per-partition :class:`MemoryAccessProfile`,
  consumed by incremental task-graph assembly.

The task graph is maintained incrementally: section-2.7 mutators mark
partitions dirty, and :meth:`task_graph` rebuilds only the cut pairs and
IO totals incident to the dirty set (see :mod:`repro.eval.taskgraph`),
then reassembles — with results byte-identical to
:func:`repro.core.tasks.build_task_graph`.  A content diff against the
last-seen state backs the dirty set, so even an unannounced mutation is
caught, never silently served stale.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bad.prediction import DesignPrediction
from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.styles import ArchitectureStyle, ClockScheme
from repro.core.feasibility import FeasibilityCriteria
from repro.core.partition import Partition
from repro.core.partitioning import Partitioning
from repro.core.tasks import TaskGraph
from repro.dfg.graph import DataFlowGraph
from repro.eval.taskgraph import (
    TaskGraphIngredients,
    assemble_task_graph,
    full_ingredients,
    update_ingredients,
)
from repro.library.library import ComponentLibrary
from repro.memory.access import MemoryAccessProfile, memory_access_profile
from repro.memory.module import MemoryModule
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span

#: Default LRU bound for each per-content cache.  Sized for long service
#: sessions: hundreds of distinct partition contents fit, while a
#: pathological migrate-heavy client can no longer grow a session
#: without limit.
DEFAULT_CACHE_CAPACITY = 1024

ContentKey = FrozenSet[str]


class EvaluationContext:
    """Content-addressed caches + incremental task graph for one design.

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
        self._profiles: (
            "OrderedDict[ContentKey, MemoryAccessProfile]"
        ) = OrderedDict()
        self._content_hashes: Dict[ContentKey, str] = {}
        # -- incremental task-graph state --
        self._dirty: Set[str] = set()
        self._ingredients: Optional[TaskGraphIngredients] = None
        self._ingredient_state: Dict[str, ContentKey] = {}
        self._assembled: Optional[TaskGraph] = None
        self._assembled_key: Optional[Tuple] = None
        # -- counters (exported through stats() / the /metrics gauge) --
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._seeded = 0
        self._tg_full_builds = 0
        self._tg_incremental = 0
        self._tg_reuses = 0
        self._pairs_reused = 0
        self._pairs_rebuilt = 0

    # ------------------------------------------------------------------
    # content keys
    # ------------------------------------------------------------------
    def content_hash(self, op_ids: ContentKey) -> str:
        """Canonical hex digest of a partition's operation set.

        Stable across processes and sessions (unlike ``hash()`` of the
        frozenset) — the key to use anywhere a content identity leaves
        this process.
        """
        cached = self._content_hashes.get(op_ids)
        if cached is None:
            digest = hashlib.sha256(
                "\x00".join(sorted(op_ids)).encode("utf-8")
            )
            cached = digest.hexdigest()
            self._content_hashes[op_ids] = cached
        return cached

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

    # ------------------------------------------------------------------
    # memory profiles
    # ------------------------------------------------------------------
    def memory_profile(self, partition: Partition) -> MemoryAccessProfile:
        """The partition's memory access profile (cached by content)."""
        key = partition.op_ids
        cached = self._get(self._profiles, key)
        if cached is None:
            cached = memory_access_profile(self.graph, partition.op_ids)
            self._put(self._profiles, key, cached)
        return cached

    # ------------------------------------------------------------------
    # invalidation (the section-2.7 mutators call these)
    # ------------------------------------------------------------------
    def mark_membership_dirty(self, names: Iterable[str]) -> None:
        """Partition membership changed (migrate / set_partitions)."""
        self._dirty.update(names)
        self._assembled = None
        self._assembled_key = None
        self._invalidations += 1

    def mark_placement_dirty(self) -> None:
        """Chip / memory placement changed (move / assign / add_chip).

        Ingredients depend only on membership, so just the assembled
        graph is dropped; reassembly is O(partitions + pairs).
        """
        self._assembled = None
        self._assembled_key = None
        self._invalidations += 1

    def clear(self) -> None:
        """Drop every cache (benchmark cold paths)."""
        self._raw.clear()
        self._pruned.clear()
        self._profiles.clear()
        self._dirty.clear()
        self._ingredients = None
        self._ingredient_state = {}
        self._assembled = None
        self._assembled_key = None
        self._invalidations += 1

    # ------------------------------------------------------------------
    # incremental task graph
    # ------------------------------------------------------------------
    def task_graph(self, partitioning: Partitioning) -> TaskGraph:
        """The task graph for ``partitioning``, maintained incrementally.

        Byte-identical to ``build_task_graph(partitioning)`` — same task
        dict order, edge list, memory pin loads.  Emits an
        ``eval.taskgraph.delta`` span: ``mode`` is ``reused`` (nothing
        changed since last assembly), ``incremental`` (only dirty
        partitions re-derived) or ``full`` (first build), and the
        ``pairs_reused``/``pairs_rebuilt`` counters quantify the delta.
        """
        current = {
            name: partition.op_ids
            for name, partition in partitioning.partitions.items()
        }
        assembled_key = (
            tuple(current.items()),
            tuple(sorted(partitioning.partition_chip.items())),
            tuple(sorted(partitioning.memory_chip.items())),
            tuple(sorted(partitioning.chips)),
        )
        with trace_span("eval.taskgraph.delta") as sp:
            if (
                self._assembled is not None
                and assembled_key == self._assembled_key
            ):
                self._tg_reuses += 1
                sp.put("mode", "reused")
                return self._assembled
            if self._ingredients is None:
                self._ingredients = full_ingredients(partitioning)
                self._tg_full_builds += 1
                sp.put("mode", "full")
                sp.add("dirty", len(current))
            else:
                # Mutator-marked names, unioned with a content diff so an
                # unannounced membership change can never serve stale.
                dirty = {
                    name
                    for name, key in current.items()
                    if self._ingredient_state.get(name) != key
                }
                dirty |= {n for n in self._dirty if n in current}
                removed = set(self._ingredient_state) - set(current)
                if dirty or removed:
                    self._ingredients, reused, rebuilt = update_ingredients(
                        partitioning, self._ingredients, dirty, removed
                    )
                    self._tg_incremental += 1
                    self._pairs_reused += reused
                    self._pairs_rebuilt += rebuilt
                    sp.put("mode", "incremental")
                    sp.add("dirty", len(dirty) + len(removed))
                    sp.add("pairs_reused", reused)
                    sp.add("pairs_rebuilt", rebuilt)
                else:
                    sp.put("mode", "assembly")
            self._ingredient_state = current
            self._dirty.clear()
            graph = assemble_task_graph(
                partitioning,
                self._ingredients,
                lambda name: self.memory_profile(
                    partitioning.partitions[name]
                ),
            )
            self._assembled = graph
            self._assembled_key = assembled_key
            return graph

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
                "profiles": len(self._profiles),
            },
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "seeded": self._seeded,
            "taskgraph": {
                "full_builds": self._tg_full_builds,
                "incremental_updates": self._tg_incremental,
                "reuses": self._tg_reuses,
                "pairs_reused": self._pairs_reused,
                "pairs_rebuilt": self._pairs_rebuilt,
            },
        }
