"""Process-pool evaluation of combination shards.

The GIL keeps a single process from ever using more than one core on the
pure-Python integration pipeline, so the engine fans shards out to a
``multiprocessing`` pool.  Design points:

* the immutable :class:`EvaluationProblem` is pickled **once per
  worker** through the pool initializer, never per task — tasks are just
  tiny :class:`~repro.engine.sharding.Shard` ranges;
* workers run the *same* :func:`evaluate_range` code the serial path
  uses (level-2 pruning included), so parallel results merge to a
  byte-identical :class:`~repro.search.results.SearchResult`;
* cancellation is cooperative through a shared flag polled between
  combinations, mirroring the serving layer's ``should_stop`` contract;
* one method, :meth:`EvaluationEngine.plan`, decides between the pool
  and the in-process walk: ``workers=1``, fewer than
  :data:`MIN_COMBINATIONS` walkable combinations or a degraded engine
  stay in process;
* the engine degrades gracefully: a pool that cannot be created falls
  back to in-process evaluation and a dead worker's shard is re-run
  once in process (counted in the stats) — callers always get an answer
  or a :class:`~repro.errors.SearchCancelled`, never a crash.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.chips.chip import POWER_GROUND_PINS
from repro.core.feasibility import FeasibilityCriteria, evaluate_system
from repro.core.integration import DelayFloorTable, IntegrationPlan, integrate
from repro.core.partitioning import Partitioning
from repro.core.tasks import build_task_graph
from repro.engine.merge import ShardResult, merge_shard_results
from repro.engine.sharding import (
    Shard,
    combination_count,
    decode_combination,
    plan_shards,
)
from repro.errors import InfeasibleError, SearchCancelled
from repro.library.library import ComponentLibrary
from repro.obs.metrics import get_registry
from repro.obs.tracing import (
    current_tracer,
    deterministic_span_id,
    make_span_record,
    span as trace_span,
)
from repro.resilience.faults import maybe_inject
from repro.search.results import FeasibleDesign
from repro.search.space import DesignSpace
from repro.stats import ConstraintCheck, Triplet, prob_le

#: Below this many walkable combinations (the ones whose pipelined
#: rates agree, see :meth:`EvaluationProblem.walkable_count`) the walk
#: runs in process.  On a 2-vCPU host two forked workers ran the paper
#: cells of up to 768 walkable combinations at 0.37-0.98x the serial
#: walk and the 3,840 walkable combination cells at 1.56-1.61x
#: (docs/performance.md, "Where the pool pays").  Since the walk
#: screens delay floors, exp1 pkg2 k=5 integrates 121 of its 3,840
#: and pools at 0.54x (146 ms against 79 ms in process); with the
#: timing-key memo, at 0.58-1.03x over five rounds of 7-9 alternating
#: runs (median 0.86x: 100 ms against 90 ms in process).
MIN_COMBINATIONS = 2048

#: Shards per worker: more shards than workers so a slow shard cannot
#: leave the rest of the pool idle at the tail of a search.
SHARDS_PER_WORKER = 4

#: How often the parent wakes to poll ``cancel()`` while shards run.
POLL_INTERVAL_S = 0.05

#: After this many consecutive pool failures (the pool cannot be
#: created, or a run loses a worker) the engine runs in process for
#: ``DEGRADE_COOLDOWN_S`` seconds without trying a pool.
DEGRADE_AFTER = 3
DEGRADE_COOLDOWN_S = 60.0

#: The pool's start method: ``fork`` on Linux, where forkserver and
#: spawn only ever measured slower; the platform default elsewhere,
#: because Python documents fork as unsafe on macOS.
START_METHOD: Optional[str] = (
    "fork" if sys.platform.startswith("linux") else None
)

# ----------------------------------------------------------------------
# the immutable problem and its (shared) evaluation loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AreaScreen:
    """The level-2 table: what the area screen reads per combination.

    ``lower_bounds[i][d]`` is the area lower bound of prediction ``d`` in
    list ``i``; ``chips`` pairs each occupied chip's list positions (in
    :meth:`Partitioning.partitions_on_chip` order) with its optimistic
    usable area, which bonds only the supply pads.  That optimistic area
    is the screen's alone: chip usage charges the full pad ring.
    """

    lower_bounds: Tuple[Tuple[float, ...], ...]
    chips: Tuple[Tuple[Tuple[int, ...], float], ...]

    @classmethod
    def build(
        cls,
        partitioning: Partitioning,
        names: Sequence[str],
        lists: Sequence[Sequence[DesignPrediction]],
    ) -> "AreaScreen":
        position = {name: index for index, name in enumerate(names)}
        chips = []
        for chip_name, chip in partitioning.chips.items():
            usable = chip.package.usable_area_mil2(POWER_GROUND_PINS)
            positions = tuple(
                position[p] for p in partitioning.partitions_on_chip(chip_name)
            )
            if positions:
                chips.append((positions, usable))
        return cls(
            lower_bounds=tuple(
                tuple(pred.area_total.lb for pred in options)
                for options in lists
            ),
            chips=tuple(chips),
        )


@dataclass(frozen=True)
class EvaluationProblem:
    """Everything needed to evaluate any combination of one search.

    Immutable and picklable: the pool initializer ships one copy to each
    worker, after which tasks are index ranges only.  The copy carries
    the search's :class:`IntegrationPlan`, memos included where the
    evaluation context kept it from an earlier check, so workers never
    redo the selection-independent integration work.  Only the plan's
    memos change as the walk runs.
    """

    partitioning: Partitioning
    names: Tuple[str, ...]
    lists: Tuple[Tuple[DesignPrediction, ...], ...]
    clocks: ClockScheme
    library: ComponentLibrary
    criteria: FeasibilityCriteria
    prune: bool
    plan: IntegrationPlan
    area_screen: AreaScreen
    #: ``rates[i][d]`` is prediction ``d`` of list ``i``'s pipelined
    #: rate (its ``ii_main``), ``None`` when it is not pipelined.
    rates: Tuple[Tuple[Optional[int], ...], ...]
    #: The plan's :meth:`~IntegrationPlan.delay_floor_table`, whose
    #: delay floor :func:`evaluate_range` holds each walked combination
    #: to, or ``None`` where that screen is not sound (see :meth:`build`).
    delay_floor_table: Optional[DelayFloorTable]

    @classmethod
    def build(
        cls,
        partitioning: Partitioning,
        predictions: Mapping[str, Sequence[DesignPrediction]],
        clocks: ClockScheme,
        library: ComponentLibrary,
        criteria: FeasibilityCriteria,
        prune: bool = True,
        plan: Optional[IntegrationPlan] = None,
    ) -> "EvaluationProblem":
        """The problem of one search; ``plan`` is an integration plan of
        ``partitioning`` (built from scratch when omitted)."""
        names = tuple(sorted(partitioning.partitions))
        if plan is None:
            plan = IntegrationPlan(
                partitioning, build_task_graph(partitioning), clocks, library
            )
        lists = tuple(tuple(predictions[name]) for name in names)
        pla = plan.pla_params
        # The delay floor is sound where no clock overhead, latency or
        # PLA delay constant is negative (no controller then speeds up
        # as its wait grows) and integrate() raises no error it hides.
        sound = (
            prune
            and not plan.failed
            and min(pla.base_delay_ns, pla.delay_per_input_ns,
                    pla.delay_per_term_ns) >= 0
            and all(
                pred.clock_overhead_ns >= 0 and pred.latency_main >= 0
                for options in lists for pred in options
            )
        )
        return cls(
            partitioning=partitioning,
            names=names,
            lists=lists,
            clocks=clocks,
            library=library,
            criteria=criteria,
            prune=prune,
            plan=plan,
            area_screen=AreaScreen.build(partitioning, names, lists),
            rates=tuple(
                tuple(
                    pred.ii_main if pred.pipelined else None
                    for pred in options
                )
                for options in lists
            ),
            delay_floor_table=plan.delay_floor_table() if sound else None,
        )

    @property
    def radices(self) -> Tuple[int, ...]:
        return tuple(len(options) for options in self.lists)

    def combination_count(self) -> int:
        return combination_count(self.radices)

    def walkable_count(self) -> int:
        """How many combinations pass the rate check: those whose
        pipelined picks share one rate.

        With ``n[i]`` the non-pipelined predictions of list ``i`` and
        ``p[i](r)`` its pipelined ones at rate ``r``, that is
        ``Π n[i] + Σ_r (Π (n[i] + p[i](r)) − Π n[i])``: the all-plain
        combinations, plus, per rate, those that pick at least one
        pipelined prediction and only at that rate.
        """
        plain = [rates.count(None) for rates in self.rates]
        all_plain = math.prod(plain)
        pipelined = {
            rate for rates in self.rates for rate in rates if rate is not None
        }
        return all_plain + sum(
            math.prod(
                n + rates.count(rate) for n, rates in zip(plain, self.rates)
            )
            - all_plain
            for rate in pipelined
        )

    def list_sizes(self) -> Dict[str, int]:
        return {
            name: len(options)
            for name, options in zip(self.names, self.lists)
        }

    def selection(self, flat: int) -> Dict[str, DesignPrediction]:
        """The per-partition selection at one flat combination index."""
        return self.select(decode_combination(flat, self.radices))

    def select(
        self, digits: Sequence[int]
    ) -> Dict[str, DesignPrediction]:
        """The selection at one decoded combination (per-list digits)."""
        return {
            name: options[digit]
            for name, options, digit in zip(self.names, self.lists, digits)
        }


def chip_area_hopeless(screen: AreaScreen, digits: Sequence[int]) -> bool:
    """Level-2 quick check: PU areas alone already overflow some chip.

    Uses the optimistic area lower bounds, so a ``True`` here is a proof
    of infeasibility — integration overhead only adds area.
    """
    lower_bounds = screen.lower_bounds
    for positions, usable in screen.chips:
        total_lb = 0
        for position in positions:
            total_lb += lower_bounds[position][digits[position]]
        if total_lb > usable:
            return True
    return False


def delay_hopeless(floor: Triplet, criteria: FeasibilityCriteria) -> bool:
    """Level-2 quick check: the delay check fails every system whose
    delay triplet is at least ``floor`` in each field.

    The triangular CDF at a fixed limit does not rise with lb, ml or ub,
    so a floor probability of 0 is exact for such a system.  A positive
    one holds up to rounding under 1e-15 (``tests/test_distributions.py``),
    so it must fail with a 1e-9 margin added.
    """
    probability = prob_le(floor, criteria.delay_ns)
    if probability > 0.0:
        probability += 1e-9
    return not ConstraintCheck(
        "delay", floor, criteria.delay_ns, criteria.delay_confidence,
        probability,
    ).passed


def _rate_conflict(
    rates: Sequence[Sequence[Optional[int]]], digits: Sequence[int]
) -> int:
    """The first list position whose pick is pipelined at another rate
    than an earlier pipelined pick, or -1 when they share one rate.

    :func:`integrate` rejects every combination that shares the digits
    up to that position: their pipelined rates already differ.
    """
    fixed: Optional[int] = None
    for position, digit in enumerate(digits):
        rate = rates[position][digit]
        if rate is not None and rate != fixed:
            if fixed is not None:
                return position
            fixed = rate
    return -1


def _subtree_sizes(radices: Sequence[int]) -> List[int]:
    """``sizes[i]``: how many flat indices share their digits up to
    position ``i`` (the product of the later radices)."""
    sizes = [1] * len(radices)
    for position in range(len(radices) - 2, -1, -1):
        sizes[position] = sizes[position + 1] * radices[position + 1]
    return sizes


def _count_hopeless(problem: EvaluationProblem, start: int, stop: int) -> int:
    """How many of the flat indices ``[start, stop)`` level 2 kills."""
    return sum(
        chip_area_hopeless(
            problem.area_screen, decode_combination(flat, problem.radices)
        )
        for flat in range(start, stop)
    )


def evaluate_range(
    problem: EvaluationProblem,
    start: int,
    stop: int,
    cancel: Optional[Callable[[], bool]] = None,
    space: Optional[DesignSpace] = None,
    collector: Optional[Any] = None,
    counters: Optional[Dict[str, int]] = None,
    soft_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[List[FeasibleDesign], int]:
    """Evaluate the flat combination indices ``[start, stop)`` in order.

    This is the one evaluation loop in the system: the serial path runs
    it over the whole space, workers run it over their shard.  Level-2
    pruning abandons a combination on the first violated chip-area bound
    before the (more expensive) system integration runs, and then, where
    the problem sets ``delay_floor_table`` and no ``space`` or
    ``collector`` reads how combinations fail, on a delay floor that
    fails the delay check: the least adjusted clock times the critical
    path, below every delay its integration could predict.

    The walk skips what :func:`integrate`'s rate check would reject:
    where a list position's pipelined rate conflicts with an earlier
    pick, every combination sharing the digits up to it is infeasible,
    so the walk jumps to the end of that subtree (clamped to ``stop``)
    and counts its combinations as visited.  Without ``space`` only:
    the ``keep_all`` figure mode records one point per combination.

    ``counters`` is a plain dict (a span's counter map, or an explain
    collector's) credited on exit, cancellation included, with what the
    walk did: ``combinations`` visited, ``pruned_level2`` kills,
    ``integration_infeasible`` rejections and ``feasible`` designs.  It
    is an output only: a walk with counters screens and integrates
    exactly the combinations a walk without them does.

    ``collector`` (an :class:`repro.obs.ExplainCollector`-shaped object)
    receives each integrated combination's feasibility report.  It is
    the one hook that changes the walk: explain counts level 2 before
    integration, as the paper orders the checks, so with a collector
    (and ``prune`` on) each skipped combination still goes through the
    area screen, and no combination is dropped for its delay floor.
    Without one, a skipped subtree counts as ``integration_infeasible``
    whole, because :func:`integrate` would reject its combinations at
    its first check.

    ``soft_stop`` is the graceful-degradation hook (a
    :class:`repro.resilience.SoftDeadline`): where ``cancel`` raises and
    discards, an expired soft stop simply ends the walk and returns the
    partial results found so far.  At least one combination is always
    evaluated, so a degraded verdict is never an empty non-answer; the
    caller detects degradation by ``trials < stop - start``.
    """
    feasible: List[FeasibleDesign] = []
    trials = 0
    pruned = 0
    unintegrable = 0
    radices = problem.radices
    rates = problem.rates
    subtree = _subtree_sizes(radices)
    skip = space is None
    screen_skipped = problem.prune and collector is not None
    floor_table = (
        problem.delay_floor_table if skip and collector is None else None
    )
    flat = start
    try:
        while flat < stop:
            if cancel is not None and cancel():
                raise SearchCancelled(
                    f"enumeration cancelled after {trials} of "
                    f"{stop - start} combinations"
                )
            if soft_stop is not None and trials > 0 and soft_stop():
                break
            digits = decode_combination(flat, radices)
            conflict = _rate_conflict(rates, digits) if skip else -1
            if conflict >= 0:
                size = subtree[conflict]
                end = min(stop, flat - flat % size + size)
                skipped = end - flat
                hopeless = (
                    _count_hopeless(problem, flat, end)
                    if screen_skipped else 0
                )
                trials += skipped
                pruned += hopeless
                unintegrable += skipped - hopeless
                flat = end
                continue
            trials += 1
            flat += 1
            selection = problem.select(digits)
            ii_main = max(pred.ii_main for pred in selection.values())

            if problem.prune and chip_area_hopeless(
                problem.area_screen, digits
            ):
                pruned += 1
                if space is not None:
                    space.record_selection(selection, ii_main)
                continue
            if floor_table is not None and delay_hopeless(
                problem.plan.delay_floor(selection, floor_table),
                problem.criteria,
            ):
                pruned += 1
                continue
            try:
                system = integrate(
                    problem.partitioning, selection, ii_main,
                    problem.clocks, problem.library, plan=problem.plan,
                )
            except InfeasibleError:
                unintegrable += 1
                if space is not None:
                    space.record_selection(selection, ii_main)
                continue
            report = evaluate_system(system, problem.criteria)
            if collector is not None:
                collector.record_report(report)
            if space is not None:
                space.record_system(system, report.feasible)
            if report.feasible:
                feasible.append(
                    FeasibleDesign(
                        selection=selection, system=system, report=report
                    )
                )
    finally:
        if counters is not None:
            for name, count in (
                ("combinations", trials),
                ("pruned_level2", pruned),
                ("integration_infeasible", unintegrable),
                ("feasible", len(feasible)),
            ):
                counters[name] = counters.get(name, 0) + count
    return feasible, trials


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
_WORKER_PROBLEM: Optional[EvaluationProblem] = None
_WORKER_CANCEL: Optional["_CancelFlag"] = None


class _CancelFlag:
    """The pool's cancel flag: one byte of shared memory, no lock.

    A pool whose worker dies terminates the others, and a worker
    terminated while it held a ``multiprocessing.Event``'s lock (it
    polls between combinations) left that lock taken for good: the
    parent's ``set()`` then blocked forever.  One byte is read and
    written whole, so it needs no lock.
    """

    __slots__ = ("_byte",)

    def __init__(self, context: Any) -> None:
        self._byte = context.RawValue("b", 0)

    def set(self) -> None:
        self._byte.value = 1

    def is_set(self) -> bool:
        return self._byte.value != 0


def _init_worker(
    problem: EvaluationProblem, cancel_event: "_CancelFlag"
) -> None:
    """Pool initializer: receive the problem once, keep it in a global."""
    global _WORKER_PROBLEM, _WORKER_CANCEL
    _WORKER_PROBLEM = problem
    _WORKER_CANCEL = cancel_event


def _evaluate_shard(
    shard: Shard, trace_id: Optional[str] = None
) -> ShardResult:
    """Task body run inside a worker process.

    When the parent search is traced, ``trace_id`` rides in with the
    task and the worker builds its shard span *record* locally — it has
    no channel to the parent's tracer, so the record travels home inside
    the :class:`ShardResult` and is re-parented under the engine's run
    span at merge time.  The span id is a pure function of the trace id
    and shard index, so the merged tree is deterministic.
    """
    if _WORKER_PROBLEM is None:
        raise RuntimeError("worker used before initialization")
    # Fault-injection sites (no-ops unless $CHOP_FAULTS names them):
    # "shard" raises in the task body, "shard_exit" kills the process.
    maybe_inject("shard_exit", index=shard.index)
    maybe_inject("shard", index=shard.index)
    cancel = (
        _WORKER_CANCEL.is_set if _WORKER_CANCEL is not None else None
    )
    started = time.perf_counter()
    wall_started = time.time()
    counters: Optional[Dict[str, int]] = (
        {} if trace_id is not None else None
    )
    feasible, trials = evaluate_range(
        _WORKER_PROBLEM, shard.start, shard.stop,
        cancel=cancel, counters=counters,
    )
    spans: List[Dict[str, Any]] = []
    if trace_id is not None:
        spans.append(
            make_span_record(
                trace_id=trace_id,
                span_id=deterministic_span_id(
                    trace_id, "shard", shard.index
                ),
                parent_id=None,  # re-parented on merge
                name="engine.shard",
                start_s=wall_started,
                end_s=time.time(),
                counters=counters,
                attrs={
                    "shard": shard.index,
                    "start": shard.start,
                    "stop": shard.stop,
                },
            )
        )
    return ShardResult(
        shard=shard,
        feasible=feasible,
        trials=trials,
        elapsed_s=time.perf_counter() - started,
        spans=spans,
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class EnginePlan:
    """How :meth:`EvaluationEngine.run` walks one combination space."""

    mode: str  # "parallel" | "serial" | "serial-degraded"
    #: Why the walk stays in process (empty for a parallel plan).
    reason: str
    #: The pool's shards; one whole-space shard for an in-process walk.
    shards: Tuple[Shard, ...]


@dataclass(slots=True)
class EngineRun:
    """Outcome and accounting of one :meth:`EvaluationEngine.run`."""

    feasible: List[FeasibleDesign]
    trials: int
    mode: str  # "parallel" | "serial" | "serial-fallback" | "serial-degraded"
    shard_count: int
    wall_s: float
    retried_shards: int = 0
    #: Sum of per-shard evaluation time over (wall * workers); 1.0 means
    #: every worker was busy the whole run.  None for serial runs.
    utilization: Optional[float] = None


class EvaluationEngine:
    """A reusable, thread-safe batch evaluator for combination searches.

    One engine can serve many concurrent searches (the HTTP service holds
    a single instance); each :meth:`run` gets its own pool so cancellation
    and crash recovery never leak between searches.  ``workers`` is the
    pool size (default: the CPU count); the module constants above are
    the rest of its configuration, and tests monkeypatch them.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._degraded_until = 0.0
        self._lock = threading.Lock()
        # Worker processes never see the parent registry, so shard wall
        # time is observed parent-side from each ShardResult.elapsed_s.
        registry = get_registry()
        self._run_seconds = registry.histogram(
            "engine_run_seconds",
            "Engine run wall time by execution mode",
            labelnames=("mode",),
        )
        self._shard_seconds = registry.histogram(
            "engine_shard_seconds",
            "Per-shard evaluation wall time by execution mode",
            labelnames=("mode",),
        )
        self._stats: Dict[str, Any] = {
            "workers": workers,
            "searches_parallel": 0,
            "searches_serial": 0,
            "searches_degraded": 0,
            "fallbacks": 0,
            "shards_completed": 0,
            "shards_retried": 0,
            "pool_failures_consecutive": 0,
            "combinations_evaluated": 0,
            "last_utilization": None,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plan(self, problem: EvaluationProblem) -> EnginePlan:
        """Decide between the pool and the in-process walk for
        ``problem``, and plan the pool's shards.

        The decision counts the walkable combinations, the ones the walk
        does not skip at the rate check; the shards tile the whole flat
        space.  :meth:`run` follows this plan and ``--dry-run`` prints it.
        """
        total = problem.combination_count()
        whole = tuple(plan_shards(total, 1))
        if self.workers <= 1:
            return EnginePlan("serial", "one worker requested", whole)
        walkable = problem.walkable_count()
        if walkable < MIN_COMBINATIONS:
            reason = (
                f"{walkable} walkable combinations, below the pool "
                f"threshold of {MIN_COMBINATIONS}"
            )
            return EnginePlan("serial", reason, whole)
        if self.is_degraded():
            # Repeated pool failures: stop fighting the platform and
            # answer in process until the cooldown passes.
            return EnginePlan("serial-degraded", "pool cooldown", whole)
        shards = plan_shards(total, self.workers * SHARDS_PER_WORKER)
        return EnginePlan("parallel", "", tuple(shards))

    def run(
        self,
        problem: EvaluationProblem,
        cancel: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> EngineRun:
        """Evaluate the whole combination space of ``problem``.

        ``cancel`` is polled continuously; when it returns ``True`` every
        worker is stopped and :class:`SearchCancelled` is raised with no
        worker processes left behind.  ``progress`` (if given) receives
        ``(shards_done, shards_total)`` after every finished shard.

        When a tracer is active (see :mod:`repro.obs.tracing`) the run
        opens an ``engine.run`` span; worker shard spans ship back with
        the shard results and are re-parented under it during the merge.
        """
        total = problem.combination_count()
        started = time.perf_counter()
        with trace_span(
            "engine.run", workers=self.workers, space=total,
        ) as sp:
            plan = self.plan(problem)
            if plan.mode == "parallel":
                run = self._run_parallel(
                    problem, plan.shards, started, cancel, progress,
                    run_span=sp,
                )
            else:
                run = self._run_serial(problem, total, started, cancel,
                                       progress, mode=plan.mode)
            sp.put("mode", run.mode)
            sp.put("shards", run.shard_count)
            if run.utilization is not None:
                sp.put("utilization", run.utilization)
            sp.add("combinations", run.trials)
            sp.add("feasible", len(run.feasible))
            sp.add("retried_shards", run.retried_shards)
        self._account(run)
        return run

    def stats(self) -> Dict[str, Any]:
        """Cumulative counters for ``/metrics`` (a snapshot copy)."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["degraded"] = time.monotonic() < self._degraded_until
            return snapshot

    def is_degraded(self) -> bool:
        """Whether the engine is inside a forced-serial cooldown."""
        with self._lock:
            return time.monotonic() < self._degraded_until

    def _note_pool_failure(self) -> None:
        """One more consecutive pool failure; maybe enter degraded mode."""
        with self._lock:
            self._stats["pool_failures_consecutive"] += 1
            if self._stats["pool_failures_consecutive"] >= DEGRADE_AFTER:
                self._degraded_until = time.monotonic() + DEGRADE_COOLDOWN_S

    def _note_pool_ok(self) -> None:
        """A clean parallel run resets the failure streak."""
        with self._lock:
            self._stats["pool_failures_consecutive"] = 0

    # ------------------------------------------------------------------
    # execution modes
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        problem: EvaluationProblem,
        total: int,
        started: float,
        cancel: Optional[Callable[[], bool]],
        progress: Optional[Callable[[int, int], None]],
        mode: str,
    ) -> EngineRun:
        with trace_span(
            "engine.serial", start=0, stop=total, mode=mode,
        ) as sp:
            feasible, trials = evaluate_range(
                problem, 0, total, cancel=cancel, counters=sp.counters,
            )
        if progress is not None:
            progress(1, 1)
        return EngineRun(
            feasible=feasible,
            trials=trials,
            mode=mode,
            shard_count=1,
            wall_s=time.perf_counter() - started,
        )

    def _make_executor(
        self, problem: EvaluationProblem
    ) -> Tuple[ProcessPoolExecutor, _CancelFlag]:
        """Create the pool (separated out so tests can inject failure)."""
        context = multiprocessing.get_context(START_METHOD)
        cancel_event = _CancelFlag(context)
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(problem, cancel_event),
        )
        return executor, cancel_event

    def _run_parallel(
        self,
        problem: EvaluationProblem,
        shards: Sequence[Shard],
        started: float,
        cancel: Optional[Callable[[], bool]],
        progress: Optional[Callable[[int, int], None]],
        run_span: Any = None,
    ) -> EngineRun:
        total = problem.combination_count()
        try:
            executor, cancel_event = self._make_executor(problem)
        except (ValueError, OSError, ImportError):
            # A platform that cannot start processes at all: stay
            # correct, run in process.
            with self._lock:
                self._stats["fallbacks"] += 1
            self._note_pool_failure()
            return self._run_serial(problem, total, started, cancel,
                                    progress, mode="serial-fallback")

        tracer = current_tracer()
        trace_id = tracer.trace_id if tracer is not None else None
        results: List[ShardResult] = []
        dead_shards: List[Shard] = []
        try:
            pending = {
                executor.submit(_evaluate_shard, shard, trace_id): shard
                for shard in shards
            }
            while pending:
                done, _ = wait(
                    pending,
                    timeout=POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                if cancel is not None and cancel():
                    raise SearchCancelled(
                        f"parallel enumeration cancelled with "
                        f"{len(pending)} of {len(shards)} shards "
                        f"outstanding"
                    )
                for future in done:
                    shard = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        result = future.result()
                        results.append(result)
                        self._shard_seconds.labels(mode="parallel").observe(
                            result.elapsed_s, exemplar=trace_id
                        )
                        if progress is not None:
                            progress(
                                len(results) + len(dead_shards),
                                len(shards),
                            )
                    elif isinstance(error, (BrokenProcessPool, OSError)):
                        # The worker died (or the pool broke with it);
                        # remember the shard for an in-process re-run.
                        dead_shards.append(shard)
                    elif isinstance(error, SearchCancelled):
                        raise SearchCancelled(str(error))
                    else:
                        raise error
        finally:
            cancel_event.set()
            executor.shutdown(wait=True, cancel_futures=True)

        for shard in sorted(dead_shards, key=lambda s: s.start):
            results.append(self._rerun_shard(problem, shard, cancel))
            if progress is not None:
                progress(len(results), len(shards))
        if dead_shards:
            self._note_pool_failure()
        else:
            self._note_pool_ok()

        with trace_span("engine.merge", shards=len(results)) as merge_sp:
            if tracer is not None:
                # Replay worker shard spans in visit order, re-parented
                # under the run span — the tree is identical no matter
                # which worker ran which shard.
                parent_id = getattr(run_span, "span_id", None)
                replayed = 0
                for result in sorted(
                    results, key=lambda r: r.shard.start
                ):
                    for record in result.spans:
                        record["parent_id"] = parent_id
                        tracer.emit(record)
                        replayed += 1
                merge_sp.add("replayed_spans", replayed)
            feasible, trials = merge_shard_results(results, total)
            merge_sp.add("feasible", len(feasible))
        wall = time.perf_counter() - started
        busy = sum(result.elapsed_s for result in results)
        return EngineRun(
            feasible=feasible,
            trials=trials,
            mode="parallel",
            shard_count=len(shards),
            wall_s=wall,
            retried_shards=len(dead_shards),
            utilization=(
                round(busy / (wall * self.workers), 4) if wall > 0
                else None
            ),
        )

    def _rerun_shard(
        self,
        problem: EvaluationProblem,
        shard: Shard,
        cancel: Optional[Callable[[], bool]],
    ) -> ShardResult:
        """Re-run a dead worker's shard once, in process.

        :func:`evaluate_range` opens no file and passes no fault site,
        so a second in-process attempt could only repeat the first.
        """
        rerun_started = time.perf_counter()
        # Run in process, so the span lands on the parent tracer
        # directly (parented under engine.run by context).
        with trace_span(
            "engine.shard", shard=shard.index, start=shard.start,
            stop=shard.stop, retried=True,
        ) as sp:
            feasible, trials = evaluate_range(
                problem, shard.start, shard.stop,
                cancel=cancel, counters=sp.counters,
            )
        self._shard_seconds.labels(mode="retry").observe(
            time.perf_counter() - rerun_started
        )
        return ShardResult(shard=shard, feasible=feasible, trials=trials)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account(self, run: EngineRun) -> None:
        self._run_seconds.labels(mode=run.mode).observe(run.wall_s)
        if run.mode != "parallel":
            # Serial modes evaluate the whole space as one shard.
            self._shard_seconds.labels(mode=run.mode).observe(run.wall_s)
        with self._lock:
            if run.mode == "parallel":
                self._stats["searches_parallel"] += 1
            else:
                self._stats["searches_serial"] += 1
            if run.mode == "serial-degraded":
                self._stats["searches_degraded"] += 1
            self._stats["shards_completed"] += run.shard_count
            self._stats["shards_retried"] += run.retried_shards
            self._stats["combinations_evaluated"] += run.trials
            if run.utilization is not None:
                self._stats["last_utilization"] = run.utilization
