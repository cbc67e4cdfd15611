"""The BAD predictor facade.

:class:`BADPredictor` generates the per-partition prediction lists CHOP
searches over.  For one partition it enumerates

* every module set the library offers for the partition's operation
  types (filtered by the datapath cycle under the single-cycle style),
* every allocation along the serial-parallel frontier,
* the nonpipelined design, and the tightest pipelined design each
  allocation sustains (a pipelined design run slower than its hardware
  allows is dominated by construction, so BAD does not emit it),

and predicts the full area breakdown, timing and memory bandwidth for
each, deduplicating identical design points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bad.allocation import (
    LiveProfile,
    MuxFacts,
    allocation_candidates,
    live_profile,
    mux_facts,
    mux_requirement,
    partition_resource_model,
    register_bits,
    register_requirement,
)
from repro.bad.controller import PlaParameters, datapath_controller
from repro.bad.power import PowerParameters, power_estimate
from repro.bad.prediction import AreaBreakdown, DesignPrediction
from repro.bad.scheduling import Schedule, SchedulePlan, list_schedule
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.bad.wiring import WiringParameters, wiring_estimate
from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import MEMORY_OP_TYPES, OpType
from repro.errors import PredictionError
from repro.library.library import ComponentLibrary, ModuleSet
from repro.memory.access import memory_access_profile
from repro.memory.module import MemoryModule
from repro.stats import Triplet
from repro.units import ceil_div, cycles_for_delay


@dataclass(frozen=True, slots=True)
class PredictorParameters:
    """Tunable constants of the prediction model.

    The relative bounds widen each most-likely estimate into its triplet;
    functional units are known library data (narrow), registers and muxes
    depend on binding details (moderate), wiring is pre-layout (wide, set
    in :class:`~repro.bad.wiring.WiringParameters`).
    """

    max_total_units: int = 64
    functional_rel_lb: float = 0.98
    functional_rel_ub: float = 1.04
    storage_rel_lb: float = 0.92
    storage_rel_ub: float = 1.10
    #: Discount on the naive mux-tree count for binder wire sharing; see
    #: :func:`repro.bad.allocation.mux_requirement`.
    mux_sharing_factor: float = 0.55
    #: Allow dependent single-cycle operations to chain within one
    #: datapath cycle.  Off, every operation is aligned to a cycle
    #: boundary — the ablation showing why a slow datapath clock wastes
    #: fast adders.
    enable_chaining: bool = True
    pla: PlaParameters = field(default_factory=PlaParameters)
    wiring: WiringParameters = field(default_factory=WiringParameters)
    power: PowerParameters = field(default_factory=PowerParameters)
    #: Include design-for-test overhead (the paper's section-5
    #: testability extension): one scan mux per register bit, extra
    #: controller terms for scan control, and a small clock-path delay.
    scan_design: bool = False
    #: Extra product terms the scan controller needs, as a fraction of
    #: the base controller's terms.
    scan_term_fraction: float = 0.05
    #: Delay the scan mux adds in front of every register, ns.
    scan_delay_ns: float = 1.5


@dataclass(frozen=True, slots=True)
class _Partition:
    """What every prediction of one partition shares, whatever its module
    set or schedule: derived from the subgraph once per
    :meth:`BADPredictor.predict_partition` call."""

    graph: DataFlowGraph
    #: Resource class of each operation, and op count per class.
    op_class: Dict[str, str]
    counts: Dict[str, int]
    #: The dominant value width, which sizes every unit.
    width: int
    memory_bandwidth_bits: Dict[str, int]
    input_bits: int
    output_bits: int
    #: Ops and widest port per class, primary inputs and internal
    #: writers: the mux estimate's partition-only inputs.
    mux: MuxFacts


@dataclass(frozen=True, slots=True)
class _Design:
    """One design a schedule supports, whatever the module set: the
    quantities a prediction takes from its schedule alone.  Equal designs
    give equal predictions of a module set, so each timing key keeps
    only its distinct ones."""

    pipelined: bool
    ii_dp: int
    latency_dp: int
    #: Units the design instantiates per resource class, as (class,
    #: units) pairs in the schedule's class order.
    operators: Tuple[Tuple[str, int], ...]
    register_words: int
    register_bits: int
    mux_count: int
    #: The interval and latency in main-clock cycles.
    ii_main: int
    latency_main: int
    #: What a module set's predictions are deduplicated on: sorted
    #: operators, main-clock interval and latency, style.
    point: Tuple


class BADPredictor:
    """Behavioral area-delay predictor for one library/style/clock setup."""

    def __init__(
        self,
        library: ComponentLibrary,
        clocks: ClockScheme,
        style: ArchitectureStyle,
        memories: Optional[Mapping[str, MemoryModule]] = None,
        params: Optional[PredictorParameters] = None,
    ) -> None:
        self.library = library
        self.clocks = clocks
        self.style = style
        self.memories = dict(memories or {})
        self.params = params or PredictorParameters()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict_partition(
        self,
        graph: DataFlowGraph,
        op_ids: Optional[Iterable[str]] = None,
        name: str = "P1",
        input_arrivals: Optional[Mapping[str, int]] = None,
    ) -> List[DesignPrediction]:
        """All predicted implementations of one partition.

        ``op_ids`` selects the partition's operations; ``None`` means the
        whole graph.  ``input_arrivals`` optionally maps primary-input
        value ids to arrival times in datapath cycles (the section-5
        extension); by default all inputs are available at cycle 0.
        Returns predictions sorted by the paper's ordering (initiation
        interval, then delay), deduplicated on the design point (module
        set, operators, II, latency, style).
        """
        sub = (
            graph.subgraph_ops(op_ids) if op_ids is not None else graph
        )
        if sub.op_count() == 0:
            raise PredictionError(f"partition {name!r} is empty")
        ready = self._ready_times(sub, input_arrivals)
        op_class, counts = partition_resource_model(sub)
        module_sets = self._module_sets(sub)
        # Raises PredictionError on an unknown memory block, before the
        # bandwidth model below meets it.
        memory_cycles = self._memory_cycles(sub)
        profile = memory_access_profile(sub, sub.operations)
        part = _Partition(
            graph=sub,
            op_class=op_class,
            counts=counts,
            width=max((v.width for v in sub.values.values()), default=1),
            memory_bandwidth_bits=(
                profile.bandwidth_bits(self.memories)
                if profile.blocks else {}
            ),
            input_bits=sum(v.width for v in sub.primary_inputs()),
            output_bits=sum(v.width for v in sub.primary_outputs()),
            mux=mux_facts(sub, op_class),
        )

        # Each design point (module set, operators, II, latency, style)
        # keeps its smallest-area prediction, with its rank in the paper's
        # order (II, latency, area) computed while it was assembled.
        predictions: Dict[Tuple, Tuple[Tuple, DesignPrediction]] = {}
        # Module sets with identical cycle counts and (when chaining)
        # identical delays produce identical schedules, and a schedule's
        # designs (interval, units, registers, muxes) do not depend on the
        # module set: each timing key's distinct designs are derived once,
        # and every module set of that timing assembles one prediction per
        # design.  The allocation frontier with its capacities is derived
        # once per busy-cycle vector, which timing keys may share.
        designs_by_timing: Dict[Tuple, List[_Design]] = {}
        frontiers: Dict[Tuple, List[Dict[str, int]]] = {}
        for module_set in module_sets:
            duration = self._durations(sub, module_set, memory_cycles)
            delay_ns, cycle_ns = self._chaining_model(sub, module_set)
            if duration and max(duration.values()) > 1:
                # A multi-cycle memory access forbids chaining alignment.
                delay_ns, cycle_ns = None, None
            busy_cycles: Dict[str, int] = {}
            for op_id, cycles in duration.items():
                cls = op_class[op_id]
                busy_cycles[cls] = busy_cycles.get(cls, 0) + cycles
            unit_area = {
                cls: module_set.component(OpType(cls)).area_for_width(
                    part.width
                )
                for cls in counts
                if not cls.startswith("mem:")
            }
            timing_key: Tuple = (
                tuple(sorted(duration.items())),
                tuple(sorted(delay_ns.items())) if delay_ns else None,
            )
            designs = designs_by_timing.get(timing_key)
            if designs is None:
                busy_key = tuple(sorted(busy_cycles.items()))
                frontier = frontiers.get(busy_key)
                if frontier is None:
                    frontier = frontiers[busy_key] = [
                        self._capacities(allocation)
                        for allocation in allocation_candidates(
                            counts, self.params.max_total_units,
                            busy_cycles=busy_cycles,
                        )
                    ]
                plan = SchedulePlan.build(
                    sub, duration, op_class, delay_ns, cycle_ns, ready
                )
                designs = designs_by_timing[timing_key] = self._designs(
                    part, plan, frontier
                )
            label = module_set.label
            for design in designs:
                prediction, area = self._build_prediction(
                    name, part, module_set, unit_area, busy_cycles, design
                )
                # One design point's predictions share II and latency, so
                # the lower rank is the smaller area.
                rank = (design.ii_main, design.latency_main, area)
                key = (label, design.point)
                kept = predictions.get(key)
                if kept is None or rank < kept[0]:
                    predictions[key] = (rank, prediction)
        if not predictions:
            raise PredictionError(
                f"no implementations predicted for partition {name!r}"
            )
        return [
            prediction
            for _key, prediction in sorted(
                predictions.values(), key=itemgetter(0)
            )
        ]

    # ------------------------------------------------------------------
    # enumeration helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ready_times(
        sub: DataFlowGraph,
        input_arrivals: Optional[Mapping[str, int]],
    ) -> Optional[Dict[str, int]]:
        """Per-operation earliest starts from input arrival times."""
        if not input_arrivals:
            return None
        known = {v.id for v in sub.primary_inputs()}
        unknown = set(input_arrivals) - known
        if unknown:
            raise PredictionError(
                f"arrival times reference non-input values: "
                f"{sorted(unknown)[:5]}"
            )
        ready: Dict[str, int] = {}
        for value_id, arrival in input_arrivals.items():
            # Exactly int: a bool would pass as cycle 0 or 1, and a float
            # or string would fail deep inside the scheduler.
            if type(arrival) is not int or arrival < 0:
                raise PredictionError(
                    f"input {value_id!r} has arrival time {arrival!r}; "
                    "expected a non-negative int of datapath cycles"
                )
            for consumer in sub.consumers(value_id):
                ready[consumer] = max(ready.get(consumer, 0), arrival)
        return ready

    def _module_sets(self, sub: DataFlowGraph) -> List[ModuleSet]:
        compute_types = sorted(
            {
                op.op_type
                for op in sub
                if op.op_type not in MEMORY_OP_TYPES
            },
            key=lambda t: t.value,
        )
        if not compute_types:
            # A pure-memory partition still needs a (trivial) module set.
            return [ModuleSet.of({})]
        max_delay = None
        if self.style.timing is OperationTiming.SINGLE_CYCLE:
            max_delay = self.clocks.dp_cycle_ns
        return self.library.module_sets(compute_types, max_delay)

    def _memory_cycles(self, sub: DataFlowGraph) -> Dict[str, int]:
        """Access cycles of each memory operation (module-set independent)."""
        dp = self.clocks.dp_cycle_ns
        cycles: Dict[str, int] = {}
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                module = self.memories.get(op.memory_block or "")
                if module is None:
                    raise PredictionError(
                        f"operation {op.id!r} accesses unknown memory block "
                        f"{op.memory_block!r}"
                    )
                cycles[op.id] = cycles_for_delay(module.access_time_ns, dp)
        return cycles

    def _durations(
        self,
        sub: DataFlowGraph,
        module_set: ModuleSet,
        memory_cycles: Mapping[str, int],
    ) -> Dict[str, int]:
        dp = self.clocks.dp_cycle_ns
        duration: Dict[str, int] = {}
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                duration[op.id] = memory_cycles[op.id]
            elif self.style.timing is OperationTiming.SINGLE_CYCLE:
                duration[op.id] = 1
            else:
                component = module_set.component(op.op_type)
                duration[op.id] = cycles_for_delay(component.delay_ns, dp)
        return duration

    def _chaining_model(
        self, sub: DataFlowGraph, module_set: ModuleSet
    ) -> Tuple[Optional[Dict[str, float]], Optional[float]]:
        """Per-operation delays for single-cycle chaining, if applicable.

        Under the single-cycle style a long datapath cycle would waste
        most of its span on a fast adder; BAD chains dependent operations
        within the cycle instead ("additional delays introduced to the
        clock cycle" are handled separately).  The multi-cycle style never
        chains — operations are aligned to cycle boundaries.
        """
        if self.style.timing is not OperationTiming.SINGLE_CYCLE:
            return None, None
        if not self.params.enable_chaining:
            return None, None
        delays: Dict[str, float] = {}
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                module = self.memories.get(op.memory_block or "")
                assert module is not None  # checked in _memory_cycles
                delays[op.id] = module.access_time_ns
            else:
                delays[op.id] = module_set.component(op.op_type).delay_ns
        return delays, self.clocks.dp_cycle_ns

    def _capacities(self, allocation: Mapping[str, int]) -> Dict[str, int]:
        capacities: Dict[str, int] = {}
        for cls, units in allocation.items():
            if cls.startswith("mem:"):
                block = cls[len("mem:") :]
                module = self.memories.get(block)
                if module is None:
                    raise PredictionError(
                        f"unknown memory block {block!r} in allocation"
                    )
                capacities[cls] = min(units, module.ports)
            else:
                capacities[cls] = units
        return capacities

    def _designs(
        self,
        part: _Partition,
        plan: SchedulePlan,
        frontier: List[Dict[str, int]],
    ) -> List[_Design]:
        """The distinct designs of one timing's schedules, one schedule
        per capacity vector of ``frontier``, in the order they first
        appear."""
        sub = part.graph
        # Schedules placed under this timing that left a unit idle, each
        # with its peak usage and live profile: by the reuse rule each is
        # also the schedule of other allocations of the timing.
        idle: List[Tuple[Dict[str, int], Schedule, LiveProfile]] = []
        designs: Dict[_Design, None] = {}
        for capacities in frontier:
            schedule, live = self._schedule(sub, plan, idle, capacities)
            designs.update(
                dict.fromkeys(self._designs_for_schedule(part, schedule, live))
            )
        return list(designs)

    @staticmethod
    def _schedule(
        sub: DataFlowGraph,
        plan: SchedulePlan,
        idle: List[Tuple[Dict[str, int], Schedule, LiveProfile]],
        capacities: Dict[str, int],
    ) -> Tuple[Schedule, LiveProfile]:
        """The schedule of one allocation, with its live profile.

        A retained schedule serves ``capacities`` when each class whose
        units were all busy at its peak keeps its capacity and every other
        class gets at least its peak: by the reuse rule (``docs/MODEL.md``
        section 4) that is what a placement would give, and it is verified
        again against ``capacities``.  Otherwise the plan is placed
        afresh, and the schedule is retained in ``idle`` when it leaves a
        unit idle.
        """
        for peak, placed, live in idle:
            held = placed.capacities
            if all(
                peak[cls] <= units
                if peak[cls] < held[cls]
                else units == held[cls]
                for cls, units in capacities.items()
            ):
                return placed.reallocated(capacities, sub), live
        schedule = list_schedule(
            sub, plan.duration, plan.resource_class, capacities,
            delay_ns=plan.delay_ns, cycle_ns=plan.cycle_ns,
            ready=plan.ready, plan=plan,
        )
        live = live_profile(sub, schedule)
        peak = schedule.peak_usage()
        if peak != schedule.capacities:
            idle.append((peak, schedule, live))
        return schedule, live

    def _designs_for_schedule(
        self, part: _Partition, schedule: Schedule, live: LiveProfile
    ) -> List[_Design]:
        """The nonpipelined and tightest pipelined design of a schedule.

        Everything here depends on the schedule alone, not on the module
        set.  ``live`` is the schedule's live profile, for both intervals.
        """
        designs: List[_Design] = []
        latency = max(schedule.latency, 1)
        if self.style.allow_nonpipelined:
            # Charge the units the schedule actually needs, not the raw
            # allocation: chaining and slack often leave allocated units
            # never used concurrently, and synthesis instantiates only
            # the peak.
            peak = {
                cls: units or 1
                for cls, units in schedule.peak_usage().items()
            }
            designs.append(self._make_design(
                part, schedule, live, peak, latency, pipelined=False
            ))
        if self.style.allow_pipelined and latency > 1:
            ii = self._min_pipeline_ii(schedule)
            if ii < latency:
                # Pipelined designs peak across overlapped iterations.
                designs.append(self._make_design(
                    part, schedule, live, schedule.pipeline_capacities(ii),
                    ii, pipelined=True,
                ))
        return designs

    def _make_design(
        self,
        part: _Partition,
        schedule: Schedule,
        live: LiveProfile,
        operators: Dict[str, int],
        ii_dp: int,
        pipelined: bool,
    ) -> _Design:
        sub = part.graph
        reg_words = register_requirement(sub, schedule, ii_dp, live)
        reg_bits = register_bits(sub, schedule, ii_dp, live)
        muxes = mux_requirement(
            sub, operators, part.op_class, reg_words, part.width,
            sharing_factor=self.params.mux_sharing_factor, facts=part.mux,
        )
        if self.params.scan_design:
            # Design-for-test: a scan path threads every register bit
            # through a 2:1 mux.
            muxes += reg_bits
        latency_dp = max(schedule.latency, 1)
        ii_main = self.clocks.dp_cycles_to_main(ii_dp)
        latency_main = self.clocks.dp_cycles_to_main(latency_dp)
        return _Design(
            pipelined=pipelined,
            ii_dp=ii_dp,
            latency_dp=latency_dp,
            operators=tuple(operators.items()),
            register_words=reg_words,
            register_bits=reg_bits,
            mux_count=muxes,
            ii_main=ii_main,
            latency_main=latency_main,
            point=(
                tuple(sorted(operators.items())), ii_main, latency_main,
                pipelined,
            ),
        )

    @staticmethod
    def _min_pipeline_ii(schedule: Schedule) -> int:
        """Smallest initiation interval the allocation sustains.

        Work conservation bounds the interval from below: a class with
        ``busy`` unit-cycles on ``cap`` units needs ``ceil(busy/cap)``
        cycles per iteration, so the scan starts there instead of at 1.
        Modulo feasibility is not monotone in the interval, so a bounded
        window above the bound is probed; past it the nonpipelined
        design (always emitted separately) covers the point.
        """
        latency = max(schedule.latency, 1)
        lower = max(
            (
                ceil_div(sum(units), schedule.capacities[cls])
                for cls, units in schedule.occupancy.items()
            ),
            default=1,
        )
        window = 128
        for ii in range(max(1, lower), min(latency, lower + window) + 1):
            if schedule.pipeline_feasible(ii):
                return ii
        return latency

    # ------------------------------------------------------------------
    # prediction assembly
    # ------------------------------------------------------------------
    def _build_prediction(
        self,
        name: str,
        part: _Partition,
        module_set: ModuleSet,
        unit_area: Mapping[str, float],
        busy_cycles: Mapping[str, int],
        design: _Design,
    ) -> Tuple[DesignPrediction, float]:
        """One module set's prediction for one design of a schedule, with
        its most-likely total area.

        ``unit_area`` is one unit's area and ``busy_cycles`` the
        unit-cycles per iteration, per resource class of the module set.
        Every object placed in the prediction is built here, fresh: the
        prediction lists are pickled, and an object shared between two
        predictions would pickle as a back-reference.
        """
        params = self.params
        width = part.width
        reg_bits = design.register_bits
        muxes = design.mux_count

        functional_ml = 0.0
        operator_count = 0
        for cls, units in design.operators:
            if cls.startswith("mem:"):
                continue  # memory area belongs to the memory block
            functional_ml += units * unit_area[cls]
            operator_count += units
        functional = Triplet.spread(
            functional_ml, params.functional_rel_lb, params.functional_rel_ub
        )
        registers = Triplet.spread(
            self.library.register.area_for_bits(reg_bits),
            params.storage_rel_lb,
            params.storage_rel_ub,
        ) if reg_bits else Triplet.zero()
        multiplexers = Triplet.spread(
            self.library.mux.area_for_bits(muxes),
            params.storage_rel_lb,
            params.storage_rel_ub,
        ) if muxes else Triplet.zero()

        controller = datapath_controller(
            latency_cycles=design.latency_dp,
            operator_count=max(operator_count, 1),
            register_words=design.register_words,
            mux_count=muxes,
            value_width=width,
            params=params.pla,
        )
        if params.scan_design:
            from repro.bad.controller import pla_estimate

            extra_terms = max(
                1,
                int(controller.product_terms * params.scan_term_fraction),
            )
            controller = pla_estimate(
                controller.inputs,
                controller.outputs + 1,  # scan-enable line
                controller.product_terms + extra_terms,
                params.pla,
            )

        active_ml = (
            functional.ml
            + registers.ml
            + multiplexers.ml
            + controller.area_mil2.ml
        )
        cell_count = (
            max(operator_count, 1)
            + design.register_words
            + ceil_div(muxes, max(width, 1))
            + 1  # the controller
        )
        wiring = wiring_estimate(active_ml, cell_count, params.wiring)

        overhead = (
            self.library.register.delay_ns
            + (self.library.mux.delay_ns if muxes else 0.0)
            + wiring.delay_ns
            + controller.delay_ns
        )
        if params.scan_design:
            overhead += params.scan_delay_ns

        power = power_estimate(
            functional_area_by_class=unit_area,
            busy_cycles_by_class=busy_cycles,
            ii_dp=design.ii_dp,
            dp_cycle_ns=self.clocks.dp_cycle_ns,
            register_bits=reg_bits,
            mux_count=muxes,
            controller_terms=controller.product_terms,
            active_area_mil2=active_ml,
            params=params.power,
        )

        prediction = DesignPrediction(
            partition=name,
            module_set=module_set,
            timing=self.style.timing,
            pipelined=design.pipelined,
            operators=dict(design.operators),
            ii_dp=design.ii_dp,
            latency_dp=design.latency_dp,
            ii_main=design.ii_main,
            latency_main=design.latency_main,
            register_bits=reg_bits,
            register_words=design.register_words,
            mux_count=muxes,
            area=AreaBreakdown(
                functional_units=functional,
                registers=registers,
                multiplexers=multiplexers,
                controller=controller.area_mil2,
                wiring=wiring.area_mil2,
            ),
            controller=controller,
            clock_overhead_ns=overhead,
            memory_bandwidth_bits=dict(part.memory_bandwidth_bits),
            input_bits=part.input_bits,
            output_bits=part.output_bits,
            power_mw=power.total_mw,
        )
        # The area breakdown's total, summed in the same order.
        return prediction, active_ml + wiring.area_mil2.ml
