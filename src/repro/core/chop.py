"""The CHOP designer session.

:class:`ChopSession` is the top-level API mirroring the paper's Figure 1
loop: the designer supplies the six input groups (specification, library,
chip set, memories + assignments, partitions + assignments, clocks /
style / criteria / parameters — section 2.2), CHOP predicts per-partition
implementations through the embedded BAD, searches combinations with the
heuristic of the designer's choice, and reports feasible designs with
synthesis guidelines.  The designer then modifies the partitioning
(section 2.7) and re-checks — iteration is fast because only predictions
run, never synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.bad.prediction import DesignPrediction
from repro.bad.predictor import PredictorParameters
from repro.bad.styles import ArchitectureStyle, ClockScheme
from repro.chips.chip import Chip, POWER_GROUND_PINS
from repro.chips.package import ChipPackage
from repro.core.feasibility import FeasibilityCriteria
from repro.core.partition import Partition
from repro.core.partitioning import Partitioning
from repro.dfg.graph import DataFlowGraph
from repro.errors import PartitioningError, PredictionError
from repro.eval.context import DEFAULT_CACHE_CAPACITY, EvaluationContext
from repro.library.library import ComponentLibrary
from repro.memory.module import MemoryModule
from repro.obs.tracing import span as trace_span

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.engine.workers import EvaluationEngine
    from repro.obs.explain import ExplainCollector, ExplainReport


class ChopSession:
    """One interactive partitioning session."""

    def __init__(
        self,
        graph: DataFlowGraph,
        library: ComponentLibrary,
        clocks: ClockScheme,
        style: ArchitectureStyle,
        criteria: FeasibilityCriteria,
        memories: Iterable[MemoryModule] = (),
        predictor_params: Optional[PredictorParameters] = None,
        prediction_cache_size: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self.graph = graph
        self.library = library
        self.clocks = clocks
        self.style = style
        self.criteria = criteria
        self.memories: Dict[str, MemoryModule] = {
            m.name: m for m in memories
        }
        self.chips: Dict[str, Chip] = {}
        self.memory_chip: Dict[str, str] = {}
        self._partitions: Dict[str, Partition] = {}
        self._partition_chip: Dict[str, str] = {}
        self._eval = EvaluationContext(
            graph=graph,
            library=library,
            clocks=clocks,
            style=style,
            criteria=criteria,
            memories=self.memories,
            predictor_params=predictor_params,
            cache_capacity=prediction_cache_size,
        )
        self._predictor = self._eval.predictor
        self._partitioning_cache: Optional[Partitioning] = None

    def clear_prediction_caches(self) -> None:
        """Drop every cached prediction / task-graph artifact (cold path)."""
        self._eval.clear()

    def eval_stats(self) -> Dict[str, object]:
        """Evaluation-context counters (cache hits, evictions, deltas)."""
        return self._eval.stats()

    # ------------------------------------------------------------------
    # designer inputs and modifications (section 2.7)
    # ------------------------------------------------------------------
    def add_chip(self, name: str, package: ChipPackage) -> Chip:
        """Add one chip of the target chip set."""
        if name in self.chips:
            raise PartitioningError(f"duplicate chip name {name!r}")
        chip = Chip(name=name, package=package)
        self.chips[name] = chip
        self._partitioning_cache = None
        return chip

    def set_partitions(
        self,
        partitions: Sequence[Partition],
        assignment: Mapping[str, str],
    ) -> None:
        """Define the tentative partitions and their chip assignments.

        Validates eagerly; on a bad input the previous partitioning is
        restored, so a rejected proposal never leaves the session in an
        unusable state (the baselines' sweep loops rely on this).
        """
        prev_partitions = self._partitions
        prev_chip = self._partition_chip
        self._partitions = {p.name: p for p in partitions}
        self._partition_chip = dict(assignment)
        self._partitioning_cache = None
        try:
            self.partitioning()
        except PartitioningError:
            self._partitions = prev_partitions
            self._partition_chip = prev_chip
            self._partitioning_cache = None
            raise

    def assign_memory(self, memory_name: str, chip_name: str) -> None:
        """Place an on-chip memory block on a design chip."""
        if memory_name not in self.memories:
            raise PartitioningError(f"unknown memory {memory_name!r}")
        if chip_name not in self.chips:
            raise PartitioningError(f"unknown chip {chip_name!r}")
        self.memory_chip[memory_name] = chip_name
        self._partitioning_cache = None

    def move_partition(self, partition_name: str, chip_name: str) -> None:
        """Migrate one partition to another chip."""
        if partition_name not in self._partitions:
            raise PartitioningError(f"unknown partition {partition_name!r}")
        if chip_name not in self.chips:
            raise PartitioningError(f"unknown chip {chip_name!r}")
        prev = self._partition_chip.get(partition_name)
        self._partition_chip[partition_name] = chip_name
        self._partitioning_cache = None
        try:
            self.partitioning()
        except PartitioningError:
            if prev is None:
                del self._partition_chip[partition_name]
            else:
                self._partition_chip[partition_name] = prev
            self._partitioning_cache = None
            raise

    def migrate_operations(
        self, from_partition: str, to_partition: str, op_ids: Iterable[str]
    ) -> None:
        """Move operations between partitions (a section 2.7 change)."""
        src = self._partitions.get(from_partition)
        dst = self._partitions.get(to_partition)
        if src is None or dst is None:
            raise PartitioningError(
                f"unknown partition in migration: {from_partition!r} -> "
                f"{to_partition!r}"
            )
        new_src, new_dst = src.migrate(dst, set(op_ids))
        self._partitions[from_partition] = new_src
        self._partitions[to_partition] = new_dst
        self._partitioning_cache = None
        try:
            self.partitioning()  # re-validate (may raise on mutual dep.)
        except PartitioningError:
            # A rejected migration must not corrupt the session: restore
            # both partitions so the designer (or a sweep loop) can try
            # the next candidate.
            self._partitions[from_partition] = src
            self._partitions[to_partition] = dst
            self._partitioning_cache = None
            raise

    # ------------------------------------------------------------------
    # prediction and search
    # ------------------------------------------------------------------
    def partitioning(self) -> Partitioning:
        """The current tentative partitioning (validated, cached).

        Construction validates coverage and acyclicity — O(graph) work —
        so the snapshot is cached and every section-2.7 mutator drops
        it.  :class:`Partitioning` copies its inputs at construction, so
        the cached object can never observe later session mutations.
        """
        if not self._partitions:
            raise PartitioningError(
                "no partitions defined; call set_partitions first"
            )
        if self._partitioning_cache is None:
            self._partitioning_cache = Partitioning(
                graph=self.graph,
                partitions=self._partitions.values(),
                chips=self.chips.values(),
                partition_chip=self._partition_chip,
                memories=self.memories.values(),
                memory_chip=self.memory_chip,
            )
        return self._partitioning_cache

    def predict(self, partition_name: str) -> List[DesignPrediction]:
        """BAD's raw prediction list for one partition (cached)."""
        partition = self._partitions.get(partition_name)
        if partition is None:
            raise PartitioningError(f"unknown partition {partition_name!r}")
        return list(self._eval.raw_predictions(partition_name, partition))

    def predict_all(self) -> Dict[str, List[DesignPrediction]]:
        """Raw predictions for every partition."""
        return {name: self.predict(name) for name in self._partitions}

    def export_predictions(self) -> Dict[str, List[DesignPrediction]]:
        """Raw prediction lists by partition name, for persistence.

        Computes any partition not yet predicted, so the export always
        covers the whole current partitioning (what the disk prediction
        cache stores).
        """
        return self.predict_all()

    def seed_predictions(
        self,
        predictions: Mapping[str, Sequence[DesignPrediction]],
    ) -> int:
        """Pre-fill the prediction cache from persisted lists.

        Only names matching a current partition are accepted; returns
        how many partitions were seeded.  A subsequent :meth:`predict`
        (and therefore :meth:`check`) on a seeded partition skips BAD
        entirely — the warm path of the disk prediction cache.
        """
        seeded = 0
        for name, partition in self._partitions.items():
            preds = predictions.get(name)
            if not preds:
                continue
            self._eval.seed_predictions(partition, preds)
            seeded += 1
        return seeded

    def max_usable_area_mil2(self) -> float:
        """Optimistic usable area of the roomiest chip (for pruning)."""
        if not self.chips:
            raise PartitioningError("no chips in the target chip set")
        return max(
            chip.package.usable_area_mil2(POWER_GROUND_PINS)
            for chip in self.chips.values()
        )

    def pruned_predictions(
        self, drop_inferior: bool = True
    ) -> Dict[str, List[DesignPrediction]]:
        """Level-1 pruned predictions for every partition (cached).

        Served from the evaluation context: a partition whose content is
        unchanged since the last check reuses both its raw and pruned
        lists, so a warm re-check after one migration only re-predicts
        the two touched partitions.
        """
        usable = self.max_usable_area_mil2()
        return self._eval.pruned_map(
            self._partitions, usable, drop_inferior=drop_inferior
        )

    def check(
        self,
        heuristic: str = "iterative",
        prune: bool = True,
        keep_all: bool = False,
        cancel: Optional[Callable[[], bool]] = None,
        engine: Optional["EvaluationEngine"] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        collector: Optional["ExplainCollector"] = None,
        soft_deadline_s: Optional[float] = None,
    ):
        """Search for feasible implementations of the current partitioning.

        ``heuristic`` is ``"iterative"`` (Figure 5) or ``"enumeration"``.
        ``prune=False`` with ``keep_all=True`` reproduces the paper's
        design-space figures, at the cost the paper measured (section 3.1:
        61.4 s unpruned vs under a second pruned).
        ``cancel`` is a cooperative cancellation hook polled by the
        heuristics between candidates; when it returns ``True`` the check
        raises :class:`repro.errors.SearchCancelled` — this is how the
        serving layer aborts long enumerations and enforces job timeouts.
        ``engine`` (a :class:`repro.engine.EvaluationEngine`) runs the
        enumeration walk on a process pool with results identical to the
        serial path; the iterative heuristic is inherently sequential and
        ignores it.  ``progress`` receives per-shard completion updates
        on engine runs.  ``collector`` (a
        :class:`repro.obs.ExplainCollector`, enumeration only) records
        the per-constraint failure breakdown and forces the serial path.
        ``soft_deadline_s`` bounds the search wall clock *gracefully*:
        instead of raising, an expired budget returns the designs found
        so far with ``SearchResult.degraded=True`` — a partial verdict
        beats no verdict inside an interactive loop.  It forces the
        serial path (see :mod:`repro.search.enumeration`).
        Returns a :class:`repro.search.results.SearchResult`.
        """
        from repro.search.enumeration import enumeration_search
        from repro.search.iterative import iterative_search

        with trace_span(
            "session.check", heuristic=heuristic, prune=prune,
            keep_all=keep_all,
        ) as check_span:
            partitioning = self.partitioning()
            with trace_span("session.predict", prune=prune) as sp:
                if prune:
                    predictions = self.pruned_predictions()
                else:
                    predictions = self.predict_all()
                sp.add("partitions", len(predictions))
                sp.add(
                    "predictions",
                    sum(len(p) for p in predictions.values()),
                )
            empty = [
                name for name, preds in predictions.items() if not preds
            ]
            if empty:
                raise PredictionError(
                    f"no feasible predictions survive level-1 pruning "
                    f"for partitions {empty}; relax the constraints or "
                    f"repartition"
                )
            task_graph = self._eval.task_graph(partitioning)
            if heuristic == "enumeration":
                result = enumeration_search(
                    partitioning, predictions, self.clocks, self.library,
                    self.criteria, prune=prune, keep_all=keep_all,
                    cancel=cancel, engine=engine, progress=progress,
                    collector=collector, soft_deadline_s=soft_deadline_s,
                    task_graph=task_graph,
                )
            elif heuristic == "iterative":
                result = iterative_search(
                    partitioning, predictions, self.clocks, self.library,
                    self.criteria, keep_all=keep_all, cancel=cancel,
                    soft_deadline_s=soft_deadline_s, task_graph=task_graph,
                )
            else:
                raise PredictionError(
                    f"unknown heuristic {heuristic!r}; use 'iterative' "
                    "or 'enumeration'"
                )
            check_span.add("combinations", result.trials)
            check_span.add("feasible", len(result.feasible))
            if result.degraded:
                check_span.put("degraded", True)
            if keep_all and result.space is not None:
                # The figures count BAD's per-partition predictions too.
                for preds in predictions.values():
                    for pred in preds:
                        result.space.record_prediction(pred)
            return result

    def explain(
        self,
        prune: bool = True,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> "ExplainReport":
        """Why is (or isn't) the current partitioning feasible?

        Runs the enumeration walk serially with an
        :class:`repro.obs.ExplainCollector` attached and returns a
        structured :class:`repro.obs.ExplainReport`: the level-1 pruning
        census (predictions kept per partition), the level-2 area kill
        and integration-failure counts, and a per-constraint breakdown —
        which constraint failed, for how many combinations, at what
        probability margin.  Deliberately serial; use :meth:`check` for
        the fast verdict and this for the designer's "what do I change?"
        question.
        """
        from repro.obs.explain import ExplainCollector

        raw = self.predict_all()
        if prune:
            kept = self.pruned_predictions()
        else:
            kept = raw
        level1 = {
            name: {
                "predicted": len(raw.get(name, [])),
                "kept": len(kept.get(name, [])),
            }
            for name in self._partitions
        }
        combination_count = 1
        for preds in kept.values():
            combination_count *= len(preds)
        collector = ExplainCollector()
        if all(kept.get(name) for name in self._partitions):
            self.check(
                heuristic="enumeration", prune=prune, cancel=cancel,
                collector=collector,
            )
        # else: level-1 pruning emptied some partition — the census
        # alone is the explanation; there is nothing to enumerate.
        return collector.report(
            combination_count=combination_count,
            level1=level1,
            heuristic="enumeration",
        )
