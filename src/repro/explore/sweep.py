"""The design-space sweep driver.

One :func:`explore` call enumerates candidate configurations — chip
count k crossed with package area scalings, each seeded either by the
paper-style horizontal cut or by the multilevel auto-partitioner —
evaluates every candidate through the existing machinery (the
evaluation context, optionally the process-pool engine and
the versioned disk prediction cache, so repeated sweeps are warm), and
maintains a Pareto front over the configured objective set with the
shared :class:`repro.search.pareto.ParetoFront`.

Objectives (all minimized):

``cost``
    Total manufacturing cost of the candidate's best feasible design
    (:func:`repro.chips.cost.partition_cost`).
``performance``
    Initiation interval of the best design in nanoseconds
    (``II x clock``): time between successive iterations.
``delay``
    Input-to-output latency of the best design in nanoseconds.
``chips``
    The chip count itself — a packaging/inventory objective, so the
    cheapest k-chip design survives alongside a faster (k+1)-chip one.

Every front point carries the full project document of its candidate,
so a sweep's output re-loads through ``repro check`` (and the service's
``/check``) as an ordinary project — the front is a set of *actionable*
designs, not just numbers.

Spans: the sweep runs under ``explore.sweep``; each candidate under
``explore.candidate`` (with its check nested inside), each costing
under ``explore.cost``, and the final front assembly under
``explore.front``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache import check_with_cache
from repro.chips.cost import CostParameters, CostReport, partition_cost
from repro.chips.package import scale_package
from repro.core.chop import ChopSession
from repro.core.schemes import horizontal_cut
from repro.dfg.graph import DataFlowGraph
from repro.errors import (
    ChipError,
    PartitioningError,
    PredictionError,
    SearchCancelled,
)
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span
from repro.search.pareto import ParetoFront

#: Objective registry: name -> short description.  The extractors live
#: on :class:`ExplorePoint`; this is the single place the CLI, the
#: service and the docs list valid names from.
OBJECTIVES: Dict[str, str] = {
    "cost": "total manufacturing cost in dollars",
    "performance": "initiation interval in ns (II x clock)",
    "delay": "input-to-output latency in ns",
    "chips": "number of chips in the package",
}

SEEDINGS = ("heuristic", "auto")
HEURISTICS = ("iterative", "enumeration")

Progress = Callable[[int, int], None]
Cancel = Callable[[], bool]
#: ``(graph, chips, package_scale) -> ChopSession`` with chips named
#: ``chip1..chipN`` (the seeding stages assign partitions by index).
SessionFactory = Callable[[DataFlowGraph, int, float], ChopSession]


@dataclass
class ExploreConfig:
    """Knobs of one :func:`explore` sweep."""

    #: Chip counts to try (the k axis).
    chip_counts: Tuple[int, ...] = (1, 2, 3, 4)
    #: Die-area multipliers applied to every candidate package.
    package_scales: Tuple[float, ...] = (1.0,)
    #: Names from :data:`OBJECTIVES`, in vector order.
    objectives: Tuple[str, ...] = ("cost", "performance", "delay", "chips")
    #: ``heuristic`` (horizontal cut) or ``auto`` (multilevel partitioner).
    seeding: str = "heuristic"
    #: Search heuristic for each candidate's feasibility check.
    heuristic: str = "iterative"
    #: Cost-model parameters shared by every candidate.
    cost: CostParameters = field(default_factory=CostParameters)

    def validate(self, op_count: Optional[int] = None) -> None:
        """Reject a bad sweep before any candidate is evaluated.

        ``op_count`` (when known) bounds the k axis: asking for more
        chips than operations can never seed — the serving layer wants
        that to be a 400 at submit time, not a failed background job.
        """
        if not self.chip_counts:
            raise PartitioningError("chip_counts must not be empty")
        for k in self.chip_counts:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise PartitioningError(
                    f"chip counts must be integers >= 1, got {k!r}"
                )
        if op_count is not None and max(self.chip_counts) > op_count:
            raise PartitioningError(
                f"cannot spread {op_count} operations over "
                f"{max(self.chip_counts)} chips"
            )
        if not self.package_scales:
            raise PartitioningError("package_scales must not be empty")
        for scale in self.package_scales:
            if (
                not isinstance(scale, (int, float))
                or not 0 < scale < math.inf
            ):
                raise PartitioningError(
                    f"package scales must be finite positive numbers, "
                    f"got {scale!r}"
                )
        if not self.objectives:
            raise PartitioningError("objectives must not be empty")
        for name in self.objectives:
            if name not in OBJECTIVES:
                raise PartitioningError(
                    f"unknown objective {name!r}; use a subset of "
                    f"{sorted(OBJECTIVES)}"
                )
        if len(set(self.objectives)) != len(self.objectives):
            raise PartitioningError(
                f"duplicate objectives in {list(self.objectives)}"
            )
        if self.seeding not in SEEDINGS:
            raise PartitioningError(
                f"unknown seeding {self.seeding!r}; use one of "
                f"{list(SEEDINGS)}"
            )
        if self.heuristic not in HEURISTICS:
            raise PartitioningError(
                f"unknown heuristic {self.heuristic!r}; use one of "
                f"{list(HEURISTICS)}"
            )
        self.cost.validate()


def default_session_factory(
    graph: DataFlowGraph, chips: int, scale: float
) -> ChopSession:
    """Self-contained candidate sessions for graph-only sweeps.

    Reuses the auto-partitioner's defaults (library, generous package
    sized to ops-per-chip, linearly scaled criteria) with the candidate
    scale applied on top of the generated package.
    """
    from repro.auto.partitioner import (
        default_auto_package,
        default_auto_session,
    )

    package = scale_package(default_auto_package(graph, chips), scale)
    return default_auto_session(graph, chips, package=package)


@dataclass(frozen=True)
class ExplorePoint:
    """One feasible candidate: objectives plus the design behind them."""

    chips: int
    package_scale: float
    cost_report: CostReport
    #: Best feasible design's row (main-clock cycles and ns).
    ii_main: int
    delay_main: int
    clock_cycle_ns: float
    #: The candidate's full project document — re-loadable by ``check``.
    project: Dict[str, Any]
    fingerprint: str
    trials: int

    @property
    def cost(self) -> float:
        return self.cost_report.total

    @property
    def performance_ns(self) -> float:
        return self.ii_main * self.clock_cycle_ns

    @property
    def delay_ns(self) -> float:
        return self.delay_main * self.clock_cycle_ns

    def objective_value(self, name: str) -> float:
        if name == "cost":
            return self.cost
        if name == "performance":
            return self.performance_ns
        if name == "delay":
            return self.delay_ns
        if name == "chips":
            return float(self.chips)
        raise ChipError(f"unknown objective {name!r}")

    def vector(self, objectives: Sequence[str]) -> Tuple[float, ...]:
        return tuple(self.objective_value(name) for name in objectives)

    def to_dict(
        self,
        objectives: Sequence[str],
        include_project: bool = True,
    ) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "chips": self.chips,
            "package_scale": self.package_scale,
            "objectives": {
                name: round(self.objective_value(name), 4)
                for name in objectives
            },
            "cost": self.cost_report.to_dict(),
            "best": {
                "initiation_interval": self.ii_main,
                "delay": self.delay_main,
                "clock_cycle_ns": round(self.clock_cycle_ns, 1),
            },
            "fingerprint": self.fingerprint,
            "trials": self.trials,
        }
        if include_project:
            doc["project"] = self.project
        return doc


@dataclass
class ExploreResult:
    """Everything one sweep evaluated, and the front that survived."""

    config: ExploreConfig
    #: Candidate census rows: every (k, scale) with its outcome.
    candidates: List[Dict[str, Any]]
    #: The non-dominated points, canonically ordered (vector, k, scale).
    front: List[ExplorePoint]
    evaluated: int
    feasible: int
    infeasible: int
    skipped: int
    #: Partition prediction lists seeded from the disk cache.
    cache_seeded: int

    def to_dict(self, include_projects: bool = True) -> Dict[str, Any]:
        return {
            "objectives": list(self.config.objectives),
            "seeding": self.config.seeding,
            "heuristic": self.config.heuristic,
            "chip_counts": list(self.config.chip_counts),
            "package_scales": list(self.config.package_scales),
            "evaluated": self.evaluated,
            "feasible": self.feasible,
            "infeasible": self.infeasible,
            "skipped": self.skipped,
            "cache_seeded": self.cache_seeded,
            "candidates": self.candidates,
            "front": [
                point.to_dict(
                    self.config.objectives,
                    include_project=include_projects,
                )
                for point in self.front
            ],
        }


def _seed_heuristic(
    session: ChopSession, graph: DataFlowGraph, chips: int
) -> None:
    """Install a horizontal-cut k-way partitioning on ``session``."""
    partitions = horizontal_cut(graph, chips)
    session.set_partitions(
        partitions,
        {
            partition.name: f"chip{index + 1}"
            for index, partition in enumerate(partitions)
        },
    )


def explore(
    graph: DataFlowGraph,
    config: Optional[ExploreConfig] = None,
    session_factory: Optional[SessionFactory] = None,
    engine=None,
    disk_cache=None,
    progress: Optional[Progress] = None,
    cancel: Optional[Cancel] = None,
) -> ExploreResult:
    """Sweep the (chip count x package scale) space of ``graph``.

    ``session_factory(graph, chips, scale)`` supplies each candidate's
    CHOP session (default: :func:`default_session_factory`; use
    :func:`repro.auto.partitioner.session_like_factory` to inherit an
    existing project's designer inputs).  ``engine`` shards each
    candidate's enumeration across a process pool; ``disk_cache`` (a
    :class:`repro.cache.DiskPredictionCache`) makes repeated sweeps
    warm by persisting every candidate's prediction lists.  ``progress``
    receives ``(candidates_done, candidates_total)``; ``cancel`` is
    polled between candidates and raises
    :class:`~repro.errors.SearchCancelled` when it answers ``True``.

    Deterministic for a fixed candidate set: the front depends only on
    the candidates evaluated, not on their order, and serial and
    engine-sharded sweeps return byte-identical fronts.
    """
    config = config or ExploreConfig()
    config.validate(op_count=graph.op_count())
    factory = session_factory or default_session_factory

    candidates = [
        (k, float(scale))
        for k in config.chip_counts
        for scale in config.package_scales
    ]
    front: ParetoFront[ExplorePoint] = ParetoFront(
        key=lambda point: point.vector(config.objectives)
    )
    census: List[Dict[str, Any]] = []
    feasible = infeasible = skipped = cache_seeded = 0

    with trace_span(
        "explore.sweep",
        candidates=len(candidates),
        seeding=config.seeding,
        objectives=",".join(config.objectives),
    ) as sweep_span:
        for done, (k, scale) in enumerate(candidates, start=1):
            if cancel is not None and cancel():
                raise SearchCancelled(
                    f"explore cancelled after {done - 1} of "
                    f"{len(candidates)} candidates"
                )
            row: Dict[str, Any] = {
                "chips": k,
                "package_scale": scale,
            }
            with trace_span(
                "explore.candidate", chips=k, package_scale=scale
            ) as cand_span:
                cand_started = time.perf_counter()
                point, status, reason, seeded = _evaluate_candidate(
                    graph, k, scale, config, factory, engine,
                    disk_cache, cancel,
                )
                get_registry().histogram(
                    "explore_candidate_seconds",
                    "Per-candidate sweep evaluation time by outcome",
                    labelnames=("status",),
                ).labels(status=status).observe(
                    time.perf_counter() - cand_started
                )
                cache_seeded += seeded
                row["status"] = status
                if reason:
                    row["reason"] = reason
                cand_span.put("status", status)
                if point is not None:
                    feasible += 1
                    row["objectives"] = {
                        name: round(point.objective_value(name), 4)
                        for name in config.objectives
                    }
                    cand_span.add("trials", point.trials)
                    if front.add(point):
                        cand_span.put("on_front", True)
                elif status == "infeasible":
                    infeasible += 1
                else:
                    skipped += 1
            census.append(row)
            if progress is not None:
                progress(done, len(candidates))

        with trace_span("explore.front") as front_span:
            points = sorted(
                front.points(),
                key=lambda p: (
                    p.vector(config.objectives), p.chips, p.package_scale,
                ),
            )
            front_span.add("offered", front.offered)
            front_span.add("kept", len(points))
            front_span.add("evicted", front.evicted)
        sweep_span.add("feasible", feasible)
        sweep_span.add("front", len(points))

    return ExploreResult(
        config=config,
        candidates=census,
        front=points,
        evaluated=len(candidates),
        feasible=feasible,
        infeasible=infeasible,
        skipped=skipped,
        cache_seeded=cache_seeded,
    )


def _evaluate_candidate(
    graph: DataFlowGraph,
    k: int,
    scale: float,
    config: ExploreConfig,
    factory: SessionFactory,
    engine,
    disk_cache,
    cancel: Optional[Cancel],
) -> Tuple[Optional[ExplorePoint], str, Optional[str], int]:
    """One (k, scale) cell: seed, check, cost.

    Returns ``(point, status, reason, cache_seeded)`` where ``status``
    is ``feasible`` / ``infeasible`` / ``skipped`` and ``point`` is
    ``None`` unless feasible.
    """
    from repro.io.project import project_fingerprint, session_to_dict

    if config.seeding == "auto":
        from repro.auto import AutoPartitionConfig, auto_partition

        try:
            outcome = auto_partition(
                graph,
                AutoPartitionConfig(chips=k, heuristic=config.heuristic),
                session_factory=lambda g, chips: factory(g, chips, scale),
                engine=engine,
            )
        except PartitioningError as exc:
            return None, "skipped", str(exc), 0
        except ChipError as exc:
            # A package whose pads consume its die.
            return None, "infeasible", str(exc), 0
        session, result = outcome.session, outcome.search
        if result is None or not result.feasible:
            return (
                None, "infeasible",
                "auto-partitioner found no feasible k-way structure", 0,
            )
    else:
        session = factory(graph, k, scale)
        try:
            _seed_heuristic(session, graph, k)
        except PartitioningError as exc:
            return None, "skipped", str(exc), 0
        try:
            result = check_with_cache(
                session, disk_cache,
                heuristic=config.heuristic, engine=engine, cancel=cancel,
            ).result
        except (ChipError, PredictionError) as exc:
            result, reason = None, str(exc)
        # The candidate's session is fresh, so its seeded counter is
        # what the check took from disk, also when the check raised.
        seeded = session.eval_stats()["seeded"]
        if result is None:
            return None, "infeasible", reason, seeded
        if not result.feasible:
            return (
                None, "infeasible",
                "no combination satisfies the criteria", seeded,
            )

    best = result.best()
    with trace_span("explore.cost", chips=k) as cost_span:
        report = partition_cost(
            session, selection=best.selection, params=config.cost
        )
        cost_span.add("cut_bits", report.cut_bits)
        cost_span.put("total", round(report.total, 4))
    document = session_to_dict(session)
    point = ExplorePoint(
        chips=k,
        package_scale=scale,
        cost_report=report,
        ii_main=best.ii_main,
        delay_main=best.delay_main,
        clock_cycle_ns=best.clock_cycle_ns,
        project=document,
        fingerprint=project_fingerprint(document),
        trials=result.trials,
    )
    seeded_total = seeded if config.seeding != "auto" else 0
    return point, "feasible", None, seeded_total
