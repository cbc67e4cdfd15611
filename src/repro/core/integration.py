"""System-integration prediction (section 2.5 of the paper).

Given one selected implementation (a :class:`DesignPrediction`) per
partition and a tentative system initiation interval, :func:`integrate`
predicts the whole multi-chip system: transfer bandwidths and durations,
the urgency schedule over shared pins, data-transfer modules and their
buffers, per-chip area with pin multiplexing, the adjusted clock cycle,
and the resulting system performance and delay.  The part of that work
that does not depend on the selection lives in an
:class:`IntegrationPlan`, which the search heuristics build once per
search.

Hard impossibilities — data-rate mismatches between pipelined partitions,
transfers longer than the initiation interval, pins oversubscribed at the
requested rate, memory bandwidth exceeded — raise
:class:`~repro.errors.InfeasibleError`.  Soft constraint checking against
the designer's criteria lives in :mod:`repro.core.feasibility`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.bad.controller import PlaParameters
from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.chips.chip import Chip, PinBudget, pin_budget
from repro.core.partitioning import Partitioning
from repro.core.tasks import (
    TaskGraph,
    TaskKind,
    build_task_graph,
    memory_interfaces,
)
from repro.core.transfer import (
    DataTransferModule,
    TransferEstimate,
    data_transfer_module,
    estimate_transfer,
)
# ``urgency_schedule`` runs the same scheduler from name-keyed maps; it
# stays importable here, where perfbench's traced run wraps it by name.
from repro.core.urgency import (  # noqa: F401
    PinTable,
    TaskSchedule,
    pin_table,
    schedule_tasks,
    task_urgency,
    urgency_schedule,
)
from repro.errors import ChipError, InfeasibleError, PredictionError
from repro.library.library import ComponentLibrary
from repro.memory.access import memory_access_profile
from repro.stats import Triplet
from repro.units import ceil_div

#: Relative bounds widening the clock-overhead estimate into a triplet.
_CLOCK_OVERHEAD_REL_LB = 0.92
_CLOCK_OVERHEAD_REL_UB = 1.15

#: Power of one transfer-module buffer bit switching at transfer rate
#: and of one driven I/O pad (3-micron, 5 V), in milliwatts.
_DTM_MW_PER_BUFFER_BIT = 0.004
_PAD_DRIVER_MW = 0.6

#: :meth:`IntegrationPlan.delay_floor_table`'s per-chip rows.
DelayFloorTable = Tuple[Tuple[Tuple[str, ...], float], ...]


@dataclass(frozen=True, slots=True)
class ChipUsage:
    """Predicted occupancy of one chip."""

    chip: str
    partitions: Tuple[str, ...]
    pu_area: Triplet
    dtm_area: Triplet
    pin_mux_area: Triplet
    memory_area: Triplet
    usable_area_mil2: float
    bonded_pins: int
    #: Delay contribution of this chip to the adjusted clock, in ns.
    clock_overhead_ns: float
    #: Predicted average power drawn by the chip, in milliwatts.
    power_mw: Triplet = Triplet.zero()

    @property
    def total_area(self) -> Triplet:
        return Triplet.sum(
            (self.pu_area, self.dtm_area, self.pin_mux_area, self.memory_area)
        )


@dataclass(frozen=True, slots=True)
class SystemPrediction:
    """One predicted implementation of the whole partitioned system."""

    partitioning: Partitioning
    selection: Mapping[str, DesignPrediction]
    #: System initiation interval and delay in main-clock cycles.
    ii_main: int
    delay_main: int
    #: Adjusted clock cycle (main cycle plus integration overhead).
    clock_cycle_ns: Triplet
    chip_usage: Mapping[str, ChipUsage]
    transfers: Mapping[str, TransferEstimate]
    transfer_modules: Tuple[DataTransferModule, ...]
    schedule: TaskSchedule

    @property
    def performance_ns(self) -> Triplet:
        """Predicted initiation interval in nanoseconds."""
        return self.clock_cycle_ns * self.ii_main

    @property
    def delay_ns(self) -> Triplet:
        """Predicted input-to-output delay in nanoseconds."""
        return self.clock_cycle_ns * self.delay_main

    @property
    def power_mw(self) -> Triplet:
        """Predicted system power: the sum over all chips."""
        return Triplet.sum(
            usage.power_mw for usage in self.chip_usage.values()
        )


def integrate(
    partitioning: Partitioning,
    selection: Mapping[str, DesignPrediction],
    ii_main: int,
    clocks: ClockScheme,
    library: ComponentLibrary,
    plan: Optional["IntegrationPlan"] = None,
) -> SystemPrediction:
    """Predict the integrated system for one selection of implementations.

    ``ii_main`` is the tentative system initiation interval in main-clock
    cycles; it must be at least every selected implementation's interval
    and exactly the common rate of all pipelined implementations.
    ``plan`` carries the selection-independent work for this
    partitioning, clocks and library (see :class:`IntegrationPlan`); the
    search heuristics build one per search and pass it to every call.
    Without one, a one-shot plan is built here.
    """
    _check_selection(partitioning, selection, ii_main)
    if plan is None:
        plan = IntegrationPlan(
            partitioning, build_task_graph(partitioning), clocks, library
        )
    plan.check(ii_main)
    timing = plan.timing(selection, ii_main)
    chip_usage = plan.chip_usage(selection, timing)

    overhead = max(
        (usage.clock_overhead_ns for usage in chip_usage.values()),
        default=0.0,
    )
    clock = Triplet(
        clocks.main_cycle_ns + overhead * _CLOCK_OVERHEAD_REL_LB,
        clocks.main_cycle_ns + overhead,
        clocks.main_cycle_ns + overhead * _CLOCK_OVERHEAD_REL_UB,
    )

    return SystemPrediction(
        partitioning=partitioning,
        selection=dict(selection),
        ii_main=ii_main,
        delay_main=timing.schedule.makespan,
        clock_cycle_ns=clock,
        chip_usage=chip_usage,
        transfers=dict(plan.transfers),
        transfer_modules=timing.modules,
        schedule=timing.schedule,
    )


@dataclass(frozen=True, slots=True)
class _ChipPlan:
    """The selection-independent facts of one chip's usage."""

    name: str
    partitions: Tuple[str, ...]
    #: Whether any data task occupies this chip's pins.
    moves_data: bool
    pin_mux_area: Triplet
    #: Pad delay plus pin-multiplexer delay, paid when data moves.
    pin_delay_ns: float
    memory_area: Triplet
    bonded_pins: int
    usable_area_mil2: float
    #: Pads driven at once: the widest data task on the chip.
    driven_pads: int


class _ChipTerms(NamedTuple):
    """One chip's share of a :class:`Timing`: what its DTMs add."""

    dtm_area: Triplet
    #: Pin delay plus the slowest DTM controller, where data moves.
    transfer_overhead_ns: float
    #: The DTM buffer and driven-pad power, as (lb, ml, ub), if any.
    integration_power: Optional[Tuple[float, float, float]]


class Timing(NamedTuple):
    """What one timing key fixes: the urgency schedule, its DTMs, and
    each chip's DTM terms (empty where chip usage fails)."""

    schedule: TaskSchedule
    modules: Tuple[DataTransferModule, ...]
    chips: Tuple[_ChipTerms, ...]


class IntegrationPlan:
    """The selection-independent half of :func:`integrate`, for one search.

    Built once from a partitioning, its task graph, the clocks and the
    library, a plan holds the pin budgets and data capacities, every
    transfer estimate, the scheduler's duration and pin tables, the
    per-chip statics of chip usage, the memory-bandwidth verdict per
    initiation interval, and a memo of data-transfer modules keyed by
    (task, chip, mode, wait or hold, II).

    Everything :func:`integrate` derives from the urgency schedule
    depends only on the timing key: ``ii_main`` and each process task's
    ``latency_main``, in :attr:`process_tasks` order.  :meth:`timing`
    keeps, per key, the schedule, its DTMs and each chip's DTM terms, or
    the schedule's :class:`InfeasibleError` message (a
    :class:`PredictionError` is not kept).  :func:`integrate` then does
    only the per-selection work: the selection's area, power and clock
    overhead per chip.

    A selection-independent step that fails does not raise here: the
    plan keeps the error's type and message, and :meth:`check` (or
    :meth:`chip_usage`) raises a fresh one each time an integration gets
    that far, so errors surface where and as they always did.  The plan
    holds plain data only, so it pickles to engine workers inside the
    evaluation problem.
    """

    def __init__(
        self,
        partitioning: Partitioning,
        task_graph: TaskGraph,
        clocks: ClockScheme,
        library: ComponentLibrary,
        pla_params: PlaParameters = PlaParameters(),
    ) -> None:
        self.partitioning = partitioning
        self.task_graph = task_graph
        self.clocks = clocks
        self.library = library
        self.pla_params = pla_params
        #: (task, partition) of every processing-unit task.
        self.process_tasks: Tuple[Tuple[str, Optional[str]], ...] = tuple(
            (name, task.partition)
            for name, task in task_graph.tasks.items()
            if task.kind is TaskKind.PROCESS
        )
        self.capacity: Dict[str, int] = {}
        self.transfers: Dict[str, TransferEstimate] = {}
        self.transfer_durations: Dict[str, int] = {}
        self.pin_needs: Dict[str, int] = {}
        #: (error type, message) of a failed pin budget or memory I/O
        #: check, and the message of a transfer left without data pins.
        self._pin_failure: Optional[Tuple[type, str]] = None
        self._transfer_failure: Optional[str] = None
        self._usage_failure: Optional[str] = None
        self._dtm_slots: Tuple[Tuple[str, str, str], ...] = ()
        #: Each task's duration by task number, process tasks at 0, and
        #: the process tasks' numbers in :attr:`process_tasks` order.
        self._durations: List[int] = []
        self._process_numbers: Tuple[int, ...] = ()
        self._partitions: Tuple[Optional[str], ...] = tuple(
            partition for _, partition in self.process_tasks
        )
        self._pins: PinTable = (0, ())
        self._chips: Tuple[_ChipPlan, ...] = ()
        #: Per chip, the places of its DTMs in :meth:`_plan_dtm_slots`.
        self._chip_slots: Tuple[Tuple[int, ...], ...] = ()
        self._accesses: Dict[str, int] = {}
        if partitioning.memories:
            profile = memory_access_profile(
                partitioning.graph, partitioning.graph.operations
            )
            self._accesses = {
                block: profile.accesses(block) for block in profile.blocks
            }
        self._bandwidth: Dict[int, Optional[str]] = {}
        self._modules: Dict[
            Tuple[str, str, str, int, int], DataTransferModule
        ] = {}
        self._timings: Dict[Tuple[int, ...], Union[Timing, str]] = {}
        self._plan()

    # ------------------------------------------------------------------
    # plan time
    # ------------------------------------------------------------------
    def _plan(self) -> None:
        """Run the selection-independent steps in :func:`integrate`'s
        order, stopping at (and storing) the first that fails."""
        task_graph = self.task_graph
        loads = task_graph.memory_pin_loads
        try:
            budgets = _pin_budgets(self.partitioning, task_graph)
            capacity = {
                chip: budgets[chip].data - loads.get(chip, 0)
                for chip in self.partitioning.chips
            }
            for chip, free in capacity.items():
                if free < 0:
                    raise InfeasibleError(
                        f"chip {chip!r}: memory I/O needs more pins than "
                        "the package provides"
                    )
        except (ChipError, InfeasibleError) as exc:
            self._pin_failure = (type(exc), str(exc))
            return
        self.capacity = capacity
        try:
            for name, task in task_graph.tasks.items():
                if task.kind is TaskKind.PROCESS:
                    continue
                estimate = estimate_transfer(task, budgets, loads, self.clocks)
                self.transfers[name] = estimate
                self.transfer_durations[name] = estimate.duration_main
                self.pin_needs[name] = estimate.pins
        except InfeasibleError as exc:
            self._transfer_failure = str(exc)
            return
        self._dtm_slots = self._plan_dtm_slots()
        names = task_graph.index().names
        number = {name: task for task, name in enumerate(names)}
        self._durations = [
            self.transfer_durations.get(name, 0) for name in names
        ]
        self._process_numbers = tuple(
            number[name] for name, _ in self.process_tasks
        )
        self._pins = pin_table(task_graph, self.pin_needs, self.capacity)
        try:
            self._chips = tuple(
                self._plan_chip(name, chip)
                for name, chip in self.partitioning.chips.items()
            )
        except ChipError as exc:
            self._usage_failure = str(exc)
            return
        self._chip_slots = tuple(
            tuple(
                place for place, (_, on, _) in enumerate(self._dtm_slots)
                if on == chip.name
            )
            for chip in self._chips
        )

    def _plan_dtm_slots(self) -> Tuple[Tuple[str, str, str], ...]:
        """(task, chip, mode) of every DTM, in the order modules list.

        An output-mode module sits on the data's source chip and is
        sized by the transfer's wait; an input-mode module sits on a
        receiving chip and is sized by its hold.
        """
        slots: List[Tuple[str, str, str]] = []
        for name in sorted(self.transfers):
            task = self.task_graph.tasks[name]
            if task.kind is TaskKind.TRANSFER:
                slots.append((name, task.chips[0], "output"))
                for chip in task.chips[1:]:
                    slots.append((name, chip, "input"))
            elif task.kind is TaskKind.INPUT:
                slots.append((name, task.chips[0], "input"))
            else:  # OUTPUT
                slots.append((name, task.chips[0], "output"))
        return tuple(slots)

    def _plan_chip(self, chip_name: str, chip: Chip) -> _ChipPlan:
        partitioning = self.partitioning
        mux = self.library.mux
        # Pin multiplexing: several data tasks sharing this chip's data
        # pins need steering on each shared pin.
        chip_tasks = [
            self.transfers[name]
            for name, task in self.task_graph.tasks.items()
            if task.moves_data and chip_name in task.chips
        ]
        pin_mux_bits = 0
        pin_mux_delay = 0.0
        if len(chip_tasks) > 1:
            widest = max(t.pins for t in chip_tasks)
            pin_mux_bits = (len(chip_tasks) - 1) * widest
            pin_mux_delay = mux.delay_ns
        pin_mux_area = (
            Triplet.spread(mux.area_for_bits(pin_mux_bits), 0.95, 1.10)
            if pin_mux_bits
            else Triplet.zero()
        )

        memory_area_ml = sum(
            partitioning.memories[block].on_chip_area_mil2()
            for block in partitioning.memories_on_chip(chip_name)
        )
        memory_area = (
            Triplet.spread(memory_area_ml, 0.95, 1.10)
            if memory_area_ml
            else Triplet.zero()
        )

        # The package's pad ring is fixed: every package pin carries a
        # bonded pad whether or not the design drives it, so the full
        # pin count's pad area is subtracted from the die (Table 2 lists
        # per-pad area alongside fixed pin counts).
        bonded = chip.package.pin_count
        return _ChipPlan(
            name=chip_name,
            partitions=tuple(partitioning.partitions_on_chip(chip_name)),
            moves_data=bool(chip_tasks),
            pin_mux_area=pin_mux_area,
            pin_delay_ns=chip.package.pad_delay_ns + pin_mux_delay,
            memory_area=memory_area,
            bonded_pins=bonded,
            usable_area_mil2=chip.package.usable_area_mil2(bonded),
            driven_pads=max((t.pins for t in chip_tasks), default=0),
        )

    @property
    def failed(self) -> bool:
        """Whether a selection-independent step's error is stored."""
        return (self._pin_failure, self._transfer_failure,
                self._usage_failure) != (None, None, None)

    # ------------------------------------------------------------------
    # per selection
    # ------------------------------------------------------------------
    def critical_path(self, selection: Mapping[str, DesignPrediction]) -> int:
        """The task graph's longest path in main cycles, with process
        tasks at their picks' ``latency_main`` and data tasks at their
        transfer durations: no urgency schedule is shorter.  Defined
        only on a plan that has not :attr:`failed`."""
        durations = self._task_durations(
            [selection[partition].latency_main
             for partition in self._partitions]
        )
        return max(
            task_urgency(self.task_graph.index(), durations), default=0
        )

    def _task_durations(self, latencies: Sequence[int]) -> List[int]:
        """Every task's duration by task number, process tasks at
        ``latencies`` (in :attr:`process_tasks` order)."""
        durations = list(self._durations)
        for task, latency in zip(self._process_numbers, latencies):
            durations[task] = latency
        return durations

    def delay_floor_table(self) -> DelayFloorTable:
        """Per chip, its partitions and the least transfer overhead any
        integration charges it: :meth:`chip_usage`'s terms with every
        DTM controller at wait and hold 0.  Defined only on a plan that
        has not :attr:`failed`."""
        slowest: Dict[str, float] = {}
        for name, chip, mode in self._dtm_slots:
            # The interval (1 here) sizes the buffer, not the controller.
            delay = data_transfer_module(
                self.task_graph.tasks[name], chip, mode, self.transfers[name],
                0, 1, self.clocks, self.library.register, self.pla_params,
            ).control_delay_ns
            slowest[chip] = max(delay, slowest.get(chip, delay))
        table = []
        for chip in self._chips:
            # A chip with a DTM moves data.
            overhead = chip.pin_delay_ns if chip.moves_data else 0.0
            if chip.name in slowest:
                overhead += slowest[chip.name]
            table.append((chip.partitions, overhead))
        return tuple(table)

    def delay_floor(
        self, selection: Mapping[str, DesignPrediction], table: DelayFloorTable
    ) -> Triplet:
        """The least delay :func:`integrate` can predict for ``selection``,
        in its float expressions: the adjusted clock at ``table``'s
        transfer overheads times the critical path."""
        dp_multiplier = self.clocks.dp_multiplier
        overhead = 0.0
        for partitions, transfer in table:
            dp_overhead = 0.0
            for partition in partitions:
                pick = selection[partition].clock_overhead_ns
                if pick > dp_overhead:
                    dp_overhead = pick
            chip = (dp_overhead + transfer) / dp_multiplier
            if chip > overhead:
                overhead = chip
        main = self.clocks.main_cycle_ns
        cycles = float(self.critical_path(selection))
        return Triplet(
            (main + overhead * _CLOCK_OVERHEAD_REL_LB) * cycles,
            (main + overhead) * cycles,
            (main + overhead * _CLOCK_OVERHEAD_REL_UB) * cycles,
        )

    def check(self, ii_main: int) -> None:
        """Raise what the selection-independent steps raise at ``ii_main``.

        In :func:`integrate`'s order: a failed pin budget or memory I/O
        check, then memory bandwidth at this interval, then a transfer
        with no data pins left.
        """
        if self._pin_failure is not None:
            kind, message = self._pin_failure
            raise kind(message)
        if ii_main not in self._bandwidth:
            self._bandwidth[ii_main] = self._bandwidth_verdict(ii_main)
        verdict = self._bandwidth[ii_main]
        if verdict is not None:
            raise InfeasibleError(verdict)
        if self._transfer_failure is not None:
            raise InfeasibleError(self._transfer_failure)

    def _bandwidth_verdict(self, ii_main: int) -> Optional[str]:
        """Every block must serve one iteration's accesses within the
        interval; the first block that cannot, as an error message."""
        window = ii_main // self.clocks.transfer_multiplier
        for block, count in self._accesses.items():
            module = self.partitioning.memories[block]
            needed = ceil_div(count, module.ports)
            if needed > window:
                return (
                    f"memory block {block!r} needs {needed} access cycles "
                    f"per iteration but the initiation interval allows "
                    f"{window}"
                )
        return None

    def timing(
        self, selection: Mapping[str, DesignPrediction], ii_main: int
    ) -> Timing:
        """The :class:`Timing` of ``selection``'s timing key, from the
        memo; raises the schedule's error, a fresh one each call."""
        key = (ii_main, *[
            selection[partition].latency_main
            for partition in self._partitions
        ])
        timing = self._timings.get(key)
        if timing is None:
            try:
                timing = self._time(ii_main, key[1:])
            except InfeasibleError as exc:
                timing = str(exc)
            self._timings[key] = timing
        if isinstance(timing, str):
            raise InfeasibleError(timing)
        return timing

    def _time(self, ii_main: int, latencies: Sequence[int]) -> Timing:
        schedule = schedule_tasks(
            self.task_graph.index(), self._task_durations(latencies),
            self._pins, ii_main,
        )
        modules = tuple(self.transfer_modules(schedule, ii_main))
        # No chip has terms where chip usage fails: chip_usage raises
        # before it reads any.
        return Timing(schedule, modules, tuple(
            self._chip_terms(chip, [modules[place] for place in places])
            for chip, places in zip(self._chips, self._chip_slots)
        ))

    @staticmethod
    def _chip_terms(
        chip: _ChipPlan, modules: List[DataTransferModule]
    ) -> _ChipTerms:
        # The area is folded in plain floats, in Triplet.sum's order,
        # and the slowest controller is max()'s pick.
        area_lb = area_ml = area_ub = 0.0
        buffer_bits = 0
        slowest = None
        for module in modules:
            area = module.area_mil2
            area_lb += area.lb
            area_ml += area.ml
            area_ub += area.ub
            buffer_bits += module.buffer_bits
            delay = module.control_delay_ns
            if slowest is None or delay > slowest:
                slowest = delay
        transfer_overhead = 0.0
        if chip.moves_data:
            transfer_overhead = chip.pin_delay_ns
            if slowest is not None:
                transfer_overhead += slowest
        power = None
        if buffer_bits or chip.driven_pads:
            # DTM buffers and driven pads, spread as
            # Triplet.spread(integration, 0.8, 1.3) spreads them.
            integration = float(
                buffer_bits * _DTM_MW_PER_BUFFER_BIT
                + chip.driven_pads * _PAD_DRIVER_MW
            )
            power = (integration * 0.8, integration, integration * 1.3)
        return _ChipTerms(
            Triplet(area_lb, area_ml, area_ub), transfer_overhead, power
        )

    def transfer_modules(
        self, schedule: TaskSchedule, ii_main: int
    ) -> List[DataTransferModule]:
        """Every DTM of a scheduled integration, from the memo."""
        modules: List[DataTransferModule] = []
        for name, chip, mode in self._dtm_slots:
            if mode == "output":
                delay = schedule.wait.get(name, 0)
            else:
                delay = schedule.hold.get(name, 0)
            key = (name, chip, mode, delay, ii_main)
            module = self._modules.get(key)
            if module is None:
                estimate = self.transfers[name]
                module = data_transfer_module(
                    self.task_graph.tasks[name], chip, mode, estimate,
                    delay, ii_main, self.clocks, self.library.register,
                    self.pla_params,
                )
                self._modules[key] = module
            modules.append(module)
        return modules

    def chip_usage(
        self, selection: Mapping[str, DesignPrediction], timing: Timing
    ) -> Dict[str, ChipUsage]:
        """Per-chip occupancy of one selection with its timing's DTMs."""
        if self._usage_failure is not None:
            raise ChipError(self._usage_failure)
        dp_multiplier = self.clocks.dp_multiplier
        usage: Dict[str, ChipUsage] = {}
        for chip, terms in zip(self._chips, timing.chips):
            # Each field is folded in plain floats, in Triplet.sum's
            # order, and built as one Triplet; the datapath overhead is
            # max()'s pick, or 0 on a chip without partitions.
            dp_overhead = None
            pu_lb = pu_ml = pu_ub = 0.0
            power_lb = power_ml = power_ub = 0.0
            for partition in chip.partitions:
                pred = selection[partition]
                pick = pred.clock_overhead_ns
                if dp_overhead is None or pick > dp_overhead:
                    dp_overhead = pick
                area = pred.area_total
                pu_lb += area.lb
                pu_ml += area.ml
                pu_ub += area.ub
                power = pred.power_mw
                power_lb += power.lb
                power_ml += power.ml
                power_ub += power.ub
            if terms.integration_power is not None:
                lb, ml, ub = terms.integration_power
                power_lb += lb
                power_ml += ml
                power_ub += ub
            # Transfers synchronize to datapath-cycle boundaries, so the
            # whole integration overhead is absorbed once per datapath
            # cycle: the reported main clock stretches by overhead /
            # dp_multiplier.  This reproduces the paper's adjusted clocks
            # (~310 ns in experiment 1 where dp = 10x main, ~374-400 ns
            # in experiment 2 where dp = main).
            overhead = (
                (0.0 if dp_overhead is None else dp_overhead)
                + terms.transfer_overhead_ns
            ) / dp_multiplier
            usage[chip.name] = ChipUsage(
                chip=chip.name,
                partitions=chip.partitions,
                pu_area=Triplet(pu_lb, pu_ml, pu_ub),
                dtm_area=terms.dtm_area,
                pin_mux_area=chip.pin_mux_area,
                memory_area=chip.memory_area,
                usable_area_mil2=chip.usable_area_mil2,
                bonded_pins=chip.bonded_pins,
                clock_overhead_ns=overhead,
                power_mw=Triplet(power_lb, power_ml, power_ub),
            )
        return usage


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _check_selection(
    partitioning: Partitioning,
    selection: Mapping[str, DesignPrediction],
    ii_main: int,
) -> None:
    missing = set(partitioning.partitions) - set(selection)
    if missing:
        raise PredictionError(
            f"selection misses partitions: {sorted(missing)}"
        )
    pipelined_rates = {
        pred.ii_main for pred in selection.values() if pred.pipelined
    }
    if len(pipelined_rates) > 1:
        raise InfeasibleError(
            "pipelined implementations have different data rates "
            f"({sorted(pipelined_rates)}); the combination is infeasible "
            "due to a data rate mismatch"
        )
    for name, pred in selection.items():
        if pred.ii_main > ii_main:
            raise InfeasibleError(
                f"partition {name!r} cannot sustain initiation interval "
                f"{ii_main}: its implementation needs {pred.ii_main}"
            )


def _pin_budgets(
    partitioning: Partitioning, task_graph: TaskGraph
) -> Dict[str, PinBudget]:
    interfaces = memory_interfaces(partitioning)
    budgets: Dict[str, PinBudget] = {}
    for chip_name, chip in partitioning.chips.items():
        budgets[chip_name] = pin_budget(
            chip.package,
            communication_links=task_graph.communication_links(chip_name),
            memory_blocks=len(interfaces.get(chip_name, ())),
        )
    return budgets
