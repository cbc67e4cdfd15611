"""The auto-partitioner: coarsen, split, refine, replicate, verify.

:func:`auto_partition` is the ROADMAP's "multilevel auto-partitioner":
it takes a raw specification and a chip count and produces a CHOP
session whose partitioning has been (a) optimised for cut bits by the
multilevel machinery of :mod:`repro.auto.coarsen` /
:mod:`repro.auto.refine` and (b) accepted — or explicitly reported
infeasible — by CHOP's own feasibility analysis, the oracle the paper
insists cut-bit heuristics lack.

The pipeline:

1. ``auto.coarsen`` — contract the graph to a few clusters per chip;
2. ``auto.initial`` — split the coarsest level into topological
   intervals (a chain partitioning: provably acyclic, see
   :mod:`repro.auto.initial`);
3. ``auto.refine`` — FM passes at every level while projecting back to
   the operations;
4. ``auto.replicate`` (optional) — duplicate profitable cut operations
   into their consuming partitions (:mod:`repro.auto.replicate`);
5. ``auto.feasibility`` — load the partitioning into a
   :class:`~repro.core.chop.ChopSession` and run :meth:`check`.  When
   some partition predicts infeasibly large, a bounded repair loop
   migrates boundary operations out of the worst partition through the
   transactional section 2.7 mutators — each move re-checks against the
   warm incremental caches, so CHOP feasibility (not cut bits) is the
   final acceptance criterion.

Every stage runs under a trace span (``auto.*``), so ``--trace`` on the
CLI and the service's job tracer show exactly where the time went.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.auto.coarsen import ClusterGraph, base_cluster_graph, coarsen
from repro.auto.initial import topo_interval_split, verify_chain
from repro.auto.refine import (
    RefineStats,
    _legal_targets,
    _move_gain,
    fm_refine,
    project,
)
from repro.auto.replicate import (
    ReplicationReport,
    replicate_cut_ops,
    transfer_bits,
)
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.package import ChipPackage
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.partition import Partition
from repro.dfg.graph import DataFlowGraph
from repro.errors import PartitioningError, PredictionError
from repro.library.presets import auto_library
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span

#: Main clock of the default auto session (the paper's 300 ns).
AUTO_CLOCK_NS = 300.0

#: Heuristic die area per operation (mil^2) used to size the default
#: package: the paper's MOSIS dies hold a few dozen operations in
#: ~1.1e5 mil^2, so ~4000 mil^2/op with 3x headroom keeps the default
#: session from rejecting every large partition on area alone.
_AREA_PER_OP_MIL2 = 12_000.0


@dataclass
class AutoPartitionConfig:
    """Knobs of :func:`auto_partition` (defaults fit 10^3-op graphs)."""

    #: Number of chips / partitions (k).
    chips: int = 4
    #: Per-part weight bound factor for refinement and coarsening.
    balance_tolerance: float = 0.3
    #: Coarsening stops at ``chips * clusters_per_part`` clusters.
    clusters_per_part: int = 8
    #: FM passes per hierarchy level.
    refine_passes: int = 8
    #: Maximum coarsening rounds.
    coarsen_rounds: int = 40
    #: Run the logic-replication pass.
    replicate: bool = False
    #: Bound on applied replications (0: unbounded).
    max_clones: int = 0
    #: Bound on section 2.7 repair migrations in the feasibility stage.
    feasibility_moves: int = 32
    #: Search heuristic handed to :meth:`ChopSession.check`.
    heuristic: str = "iterative"

    def validate(self) -> None:
        if self.chips < 1:
            raise PartitioningError(
                f"chips must be >= 1, got {self.chips}"
            )
        if not (
            math.isfinite(self.balance_tolerance)
            and self.balance_tolerance >= 0
        ):
            raise PartitioningError(
                "balance_tolerance must be a finite non-negative number, "
                f"got {self.balance_tolerance}"
            )


@dataclass
class AutoPartitionResult:
    """Everything :func:`auto_partition` decided and measured."""

    session: ChopSession
    #: The graph the session partitions (replicated when replication ran).
    graph: DataFlowGraph
    #: Operation id -> part index (0-based) on ``graph``.
    assignment: Dict[str, int]
    search: Optional[object]  # SearchResult; None when predictions empty
    replication: Optional[ReplicationReport]
    cut_bits: int
    transfer_bits: int
    levels: int
    refine: RefineStats = field(default_factory=RefineStats)
    repair_moves: int = 0
    infeasible_partitions: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.search is not None and bool(self.search.feasible)

    def partitions(self) -> List[Set[str]]:
        """Part index order, as op-id sets."""
        count = max(self.assignment.values(), default=-1) + 1
        parts: List[Set[str]] = [set() for _ in range(count)]
        for op_id, part in self.assignment.items():
            parts[part].add(op_id)
        return parts

    def to_dict(self) -> Dict[str, object]:
        best = self.search.best() if self.search else None
        return {
            "graph": self.graph.name,
            "operations": self.graph.op_count(),
            "chips": len(self.partitions()),
            "feasible": self.feasible,
            "cut_bits": self.cut_bits,
            "transfer_bits": self.transfer_bits,
            "levels": self.levels,
            "refine_passes": self.refine.passes,
            "moves_committed": self.refine.moves_committed,
            "repair_moves": self.repair_moves,
            "clones": (
                len(self.replication.clones) if self.replication else 0
            ),
            "replication_saved_bits": (
                self.replication.saved_bits if self.replication else 0
            ),
            "infeasible_partitions": list(self.infeasible_partitions),
            "best": best.row() if best else None,
            "part_sizes": [len(p) for p in self.partitions()],
        }


def default_auto_package(graph: DataFlowGraph, chips: int) -> ChipPackage:
    """A package generously sized for ``graph`` spread over ``chips``.

    The MOSIS presets of the paper's Table 2 top out at dies that hold a
    few dozen operations — fine for the 28-op AR filter, hopeless for
    generated 1000-op workloads.  This scales die area with operations
    per chip (plus slack for imbalance and replication) so the default
    session tests *partitioning* quality, not package shopping.
    """
    per_chip = max(1, math.ceil(graph.op_count() / max(1, chips)))
    side = max(400.0, math.sqrt(per_chip * _AREA_PER_OP_MIL2))
    pins = max(128, min(2048, 64 * math.ceil(per_chip / 8)))
    return ChipPackage(
        name=f"auto{int(side)}",
        width_mil=side,
        height_mil=side,
        pin_count=pins,
        pad_delay_ns=25.0,
        pad_area_mil2=297.60,
    )


def default_auto_criteria(graph: DataFlowGraph) -> FeasibilityCriteria:
    """Constraints loose enough that structure, not budget, decides.

    Scales the paper's experiment-1 budget (30 000 ns for 28 operations)
    linearly with operation count; the auto-partitioner's job is to find
    *a* feasible k-way structure, which the caller can then tighten.
    """
    scale = max(1.0, graph.op_count() / 28.0)
    budget = 30_000.0 * scale
    return FeasibilityCriteria(performance_ns=budget, delay_ns=budget)


def default_auto_session(
    graph: DataFlowGraph,
    chips: int,
    package: Optional[ChipPackage] = None,
    criteria: Optional[FeasibilityCriteria] = None,
) -> ChopSession:
    """A session with ``chips`` empty chips, ready for partitions."""
    session = ChopSession(
        graph=graph,
        library=auto_library(),
        clocks=ClockScheme(
            AUTO_CLOCK_NS, dp_multiplier=10, transfer_multiplier=1
        ),
        style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
        criteria=criteria or default_auto_criteria(graph),
    )
    pkg = package or default_auto_package(graph, chips)
    for index in range(chips):
        session.add_chip(f"chip{index + 1}", pkg)
    return session


SessionFactory = Callable[[DataFlowGraph, int], ChopSession]


def session_like_factory(base: ChopSession) -> SessionFactory:
    """A factory reproducing ``base``'s designer inputs for k chips.

    The returned factory builds sessions with the same library, clocks,
    style, criteria and memories as ``base`` but a fresh chip set:
    ``base``'s packages are reused round-robin (falling back to
    :func:`default_auto_package` when it has none) and every memory
    lands on chip 1.  This is how the CLI and the service auto-partition
    *an existing project* without losing its constraint context.
    """
    packages = [chip.package for chip in base.chips.values()]

    def factory(graph: DataFlowGraph, chips: int) -> ChopSession:
        session = ChopSession(
            graph=graph,
            library=base.library,
            clocks=base.clocks,
            style=base.style,
            criteria=base.criteria,
            memories=base.memories.values(),
        )
        for index in range(chips):
            package = (
                packages[index % len(packages)]
                if packages
                else default_auto_package(graph, chips)
            )
            session.add_chip(f"chip{index + 1}", package)
        for memory in base.memories:
            session.assign_memory(memory, "chip1")
        return session

    return factory
Progress = Callable[[int, int], None]

#: Progress stages reported to ``progress`` callbacks (service jobs).
_STAGES = ("coarsen", "initial", "refine", "replicate", "feasibility")


def _partition_objects(
    assignment: Dict[str, int], parts: int
) -> List[Partition]:
    members: List[List[str]] = [[] for _ in range(parts)]
    for op_id, part in assignment.items():
        members[part].append(op_id)
    return [
        Partition.of(f"P{index + 1}", ops)
        for index, ops in enumerate(members)
    ]


def _install(
    session: ChopSession, assignment: Dict[str, int], parts: int
) -> None:
    partitions = _partition_objects(assignment, parts)
    session.set_partitions(
        partitions,
        {f"P{i + 1}": f"chip{i + 1}" for i in range(parts)},
    )


def _repair_loop(
    session: ChopSession,
    graph: DataFlowGraph,
    assignment: Dict[str, int],
    config: AutoPartitionConfig,
    result: AutoPartitionResult,
    engine=None,
) -> None:
    """Bounded feasibility repair through section 2.7 migrations.

    While some partition survives no level-1 pruning (usually: too many
    operations for its die), migrate its best chain-legal boundary
    operation to the lighter adjacent partition and re-check.  Each
    iteration only dirties the two touched partitions, so the warm
    evaluation context re-predicts just those — the PR 5 incremental
    machinery this loop exists to exercise.
    """
    base = base_cluster_graph(graph)
    cluster_part = {
        cid: assignment[min(ops)] for cid, ops in base.members.items()
    }
    parts = config.chips

    for _move in range(config.feasibility_moves):
        empty: List[str] = []
        try:
            predictions = session.pruned_predictions()
            empty = [
                name for name, preds in predictions.items() if not preds
            ]
        except PredictionError:  # pragma: no cover — defensive
            pass
        if not empty:
            try:
                result.search = session.check(
                    heuristic=config.heuristic, engine=engine
                )
            except PredictionError:
                result.search = None
            if result.search is not None and result.search.feasible:
                result.infeasible_partitions = []
                return
            # Structurally predictable but system-infeasible: further
            # blind moves rarely help; report honestly instead.
            result.infeasible_partitions = []
            return
        result.infeasible_partitions = sorted(empty)
        # Shrink the hardest offender: most operations first.
        donor_name = max(
            empty, key=lambda name: (len(session._partitions[name]), name)
        )
        donor = int(donor_name[1:]) - 1
        weights = [0] * parts
        for part in cluster_part.values():
            weights[part] += 1
        if weights[donor] <= 1:
            return  # cannot empty a partition
        best = None  # (gain, -target_weight, cluster, target)
        for cid, part in cluster_part.items():
            if part != donor:
                continue
            for target in _legal_targets(base, cluster_part, cid, parts):
                gain = _move_gain(base, cluster_part, cid, target)
                key = (gain, -weights[target], -cid)
                if best is None or key > best[0]:
                    best = (key, cid, target)
        if best is None:
            return  # partition is a clique against its neighbours
        _key, cid, target = best
        op_id = min(base.members[cid])
        try:
            session.migrate_operations(
                donor_name, f"P{target + 1}", [op_id]
            )
        except PartitioningError:  # pragma: no cover — legality bug guard
            return
        cluster_part[cid] = target
        assignment[op_id] = target
        result.repair_moves += 1
    # Budget exhausted: leave the last honest verdict in place.
    try:
        result.search = session.check(
            heuristic=config.heuristic, engine=engine
        )
        result.infeasible_partitions = []
    except PredictionError:
        result.search = None


def auto_partition(
    graph: DataFlowGraph,
    config: Optional[AutoPartitionConfig] = None,
    session_factory: Optional[SessionFactory] = None,
    engine=None,
    progress: Optional[Progress] = None,
) -> AutoPartitionResult:
    """Automatically partition ``graph`` onto ``config.chips`` chips.

    ``session_factory(graph, chips)`` supplies the CHOP session used as
    the feasibility oracle (default: :func:`default_auto_session` with
    a generated package).  ``engine`` is forwarded to
    :meth:`ChopSession.check`.  ``progress`` receives
    ``(stage_index, stage_count)`` after each pipeline stage.

    Fully deterministic: same graph and config, same result — there is
    no randomness anywhere in the pipeline (the *generators* take
    seeds; the partitioner does not need one).
    """
    config = config or AutoPartitionConfig()
    config.validate()
    k = config.chips
    if graph.op_count() < k:
        raise PartitioningError(
            f"cannot spread {graph.op_count()} operations over {k} chips"
        )
    factory = session_factory or default_auto_session
    started = time.perf_counter()

    def tick(stage: str) -> None:
        if progress is not None:
            progress(_STAGES.index(stage) + 1, len(_STAGES))

    with trace_span(
        "auto.partition", ops=graph.op_count(), chips=k
    ) as root:
        max_cluster = int(
            (1.0 + config.balance_tolerance) * graph.op_count() / k
        )
        with trace_span("auto.coarsen") as sp:
            hierarchy = coarsen(
                graph,
                target_clusters=max(k, k * config.clusters_per_part),
                max_rounds=config.coarsen_rounds,
                max_cluster_weight=max_cluster,
            )
            sp.add("levels", len(hierarchy))
            sp.put("coarsest_clusters", len(hierarchy[-1].graph))
        tick("coarsen")

        with trace_span("auto.initial"):
            part_of = topo_interval_split(hierarchy[-1].graph, k)
        tick("initial")

        stats = RefineStats()
        with trace_span("auto.refine") as sp:
            for level in reversed(range(len(hierarchy))):
                cg = hierarchy[level].graph
                if level < len(hierarchy) - 1:
                    part_of = project(
                        part_of, hierarchy[level + 1].projection
                    )
                fm_refine(
                    cg,
                    part_of,
                    k,
                    balance_tolerance=config.balance_tolerance,
                    max_passes=config.refine_passes,
                    stats=stats,
                )
                verify_chain(cg, part_of)
            sp.add("passes", stats.passes)
            sp.add("moves", stats.moves_committed)
            sp.put("cut_bits", stats.cut_after)
        tick("refine")

        base = hierarchy[0].graph
        assignment = {
            min(ops): part_of[cid] for cid, ops in base.members.items()
        }
        # Every part must be non-empty (refinement preserves this, but
        # the session would reject it obscurely — check here).
        occupied = set(assignment.values())
        if occupied != set(range(k)):
            raise PartitioningError(
                f"auto-partitioning left parts empty: "
                f"{sorted(set(range(k)) - occupied)}"
            )

        replication: Optional[ReplicationReport] = None
        work_graph = graph
        if config.replicate:
            with trace_span("auto.replicate") as sp:
                work_graph, assignment, replication = replicate_cut_ops(
                    graph, assignment, max_clones=config.max_clones
                )
                sp.add("clones", len(replication.clones))
                sp.add("saved_bits", replication.saved_bits)
        tick("replicate")

        session = factory(work_graph, k)
        result = AutoPartitionResult(
            session=session,
            graph=work_graph,
            assignment=assignment,
            search=None,
            replication=replication,
            cut_bits=stats.cut_after,
            transfer_bits=transfer_bits(work_graph, assignment),
            levels=len(hierarchy),
            refine=stats,
        )
        with trace_span("auto.feasibility") as sp:
            _install(session, assignment, k)
            _repair_loop(
                session, work_graph, assignment, config, result,
                engine=engine,
            )
            result.transfer_bits = transfer_bits(work_graph, assignment)
            sp.add("repair_moves", result.repair_moves)
            sp.put("feasible", result.feasible)
        tick("feasibility")

        root.put("feasible", result.feasible)
        root.put("cut_bits", result.cut_bits)
        get_registry().histogram(
            "auto_partition_seconds",
            "End-to-end auto-partitioning time by outcome",
            labelnames=("feasible",),
        ).labels(
            feasible="true" if result.feasible else "false"
        ).observe(time.perf_counter() - started)
        return result
