"""Operator, register and multiplexer allocation estimates.

BAD "performs detailed predictions on register and multiplexer
allocation" and "considers serial-parallel tradeoffs" (section 2.4).

* :func:`allocation_candidates` spans the serial-parallel axis: unit
  vectors from fully serial (one unit per type) to fully parallel (one
  unit per operation).
* :func:`register_requirement` counts storage from value lifetimes over a
  schedule, with modulo-interval overlap for pipelined designs.
* :func:`mux_requirement` estimates 1-bit 2:1 multiplexer counts from the
  sharing implied by the operator allocation and register usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bad.scheduling import Schedule, check_interval, fold
from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import MEMORY_OP_TYPES
from repro.errors import PredictionError
from repro.units import ceil_div


def allocation_candidates(
    op_counts: Mapping[str, int],
    max_total_units: int = 64,
    busy_cycles: Mapping[str, int] | None = None,
) -> List[Dict[str, int]]:
    """Candidate unit vectors along the serial-parallel frontier.

    ``op_counts`` maps a resource class to the number of operations of
    that class; ``busy_cycles`` to the total unit-cycles that class must
    execute per iteration (defaults to the op count, i.e. one cycle per
    op).  For every achievable target latency ``S`` the performance-bound
    allocation is ``ceil(busy / S)`` units per class — the classic lower
    bound a force-directed scheduler converges to.  Sweeping ``S`` from
    the most parallel point to fully serial yields every distinct vector
    on the frontier, including skewed mixes (many multipliers, one adder)
    that a single common parallelism level would miss.
    """
    if not op_counts:
        return [{}]
    for cls, count in op_counts.items():
        if count <= 0:
            raise PredictionError(
                f"resource class {cls!r} has non-positive count {count}"
            )
    busy: Dict[str, int] = {}
    for cls, count in op_counts.items():
        cycles = count if busy_cycles is None else busy_cycles.get(cls, count)
        if cycles < count:
            raise PredictionError(
                f"resource class {cls!r}: busy cycles {cycles} below the "
                f"operation count {count}"
            )
        busy[cls] = cycles
    # S below this leaves some class above its op count (more units than
    # operations buys nothing); S above the serial bound changes nothing.
    s_min = max(1, max(ceil_div(b, op_counts[cls]) for cls, b in busy.items()))
    s_max = max(busy.values())
    seen: set = set()
    candidates: List[Dict[str, int]] = []

    def consider(vector: Dict[str, int]) -> None:
        if sum(vector.values()) > max_total_units:
            return
        key = tuple(sorted(vector.items()))
        if key not in seen:
            seen.add(key)
            candidates.append(vector)

    for target in range(s_min, s_max + 1):
        consider(
            {
                cls: min(op_counts[cls], max(1, ceil_div(b, target)))
                for cls, b in busy.items()
            }
        )
    # Also the count-balanced family (every class scaled by one common
    # parallelism level): it reaches points the performance bound skips
    # when classes have very different per-op cycle counts.
    largest = max(op_counts.values())
    for level in range(1, largest + 1):
        consider(
            {
                cls: min(count, max(1, ceil_div(count * level, largest)))
                for cls, count in op_counts.items()
            }
        )
    if not candidates:
        # Even fully serial exceeds the cap; return the serial vector so
        # the caller can reject it on area instead of silently exploring
        # nothing.
        candidates.append({cls: 1 for cls in op_counts})
    return candidates


def value_lifetimes(
    graph: DataFlowGraph, schedule: Schedule
) -> Dict[str, Tuple[int, int]]:
    """Half-open [birth, death) lifetime of every value, in dp cycles.

    Partition inputs are excluded: they are "simultaneously available
    before the execution starts" (section 2.3) *from the input-side
    data-transfer module's buffer*, which CHOP sizes separately — charging
    the PU registers for them as well would double-count the storage.
    Values feeding the outside world stay live until the end of the
    schedule, where the output-side transfer module takes over.
    """
    lifetimes: Dict[str, Tuple[int, int]] = {}
    start = schedule.start
    duration = schedule.duration
    chaining = bool(schedule.offset_ns)
    # Outputs stay live *through* the last cycle: the transfer module
    # reads them after the schedule completes.
    output_death = schedule.latency + 1
    # A value's consumers are its producer's successors.
    successors = graph.successor_index
    for value in graph.values.values():
        producer = value.producer
        if producer is None:
            continue  # held in the input DTM buffer, not PU registers
        produced_in = start[producer]
        birth = produced_in + duration[producer]
        consumers = successors[producer]
        if consumers:
            death = max(map(start.__getitem__, consumers)) + 1
        else:
            death = birth
        if value.is_output:
            death = max(death, output_death)
        if death <= birth:
            if (
                chaining
                and consumers
                and not value.is_output
                and all(start[c] == produced_in for c in consumers)
            ):
                # Every consumer reads the value combinationally within
                # the producing cycle; no register is ever written.
                continue
            # A value born in the last cycle (or consumed in its birth
            # cycle) still needs a slot for one cycle.
            death = birth + 1
        lifetimes[value.id] = (birth, death)
    return lifetimes


#: Register words and bits live in each absolute cycle of a schedule.
LiveProfile = Tuple[List[int], List[int]]


def live_profile(graph: DataFlowGraph, schedule: Schedule) -> LiveProfile:
    """Register words and bits live in each absolute cycle of a schedule.

    One :func:`value_lifetimes` pass feeds both counts: each lifetime
    adds ``+1`` / ``+width`` at its birth and the opposite at its death,
    and a running sum turns the two difference arrays into per-cycle
    occupancy.  :func:`register_requirement` and :func:`register_bits`
    fold these modulo the initiation interval.
    """
    lifetimes = value_lifetimes(graph, schedule)
    end = max((death for _birth, death in lifetimes.values()), default=0)
    words = [0] * (end + 1)
    bits = [0] * (end + 1)
    values = graph.values
    for value_id, (birth, death) in lifetimes.items():
        width = values[value_id].width
        words[birth] += 1
        words[death] -= 1
        bits[birth] += width
        bits[death] -= width
    return list(accumulate(words[:end])), list(accumulate(bits[:end]))


def register_requirement(
    graph: DataFlowGraph,
    schedule: Schedule,
    initiation_interval: int,
    live: Optional[LiveProfile] = None,
) -> int:
    """Register **words** needed, by modulo-interval lifetime overlap.

    For a nonpipelined design pass the schedule latency as the interval;
    the computation then reduces to the classic max-live count (left-edge
    bound).  For a pipelined design with interval ``l``, iterations
    overlap and a value alive ``s`` cycles occupies ``ceil(s/l)`` slots in
    steady state; folding the live words modulo ``l`` captures exactly
    that.  ``live`` is the schedule's :func:`live_profile`, for callers
    that already hold it.
    """
    check_interval(initiation_interval)
    words, _bits = live or live_profile(graph, schedule)
    return max(fold(words, initiation_interval))


def register_bits(
    graph: DataFlowGraph,
    schedule: Schedule,
    initiation_interval: int,
    live: Optional[LiveProfile] = None,
) -> int:
    """Register bits: the word requirement weighted by value widths.

    Uses the width-weighted analogue of :func:`register_requirement` so
    mixed-width graphs are charged correctly.
    """
    check_interval(initiation_interval)
    _words, bits = live or live_profile(graph, schedule)
    return max(fold(bits, initiation_interval))


@dataclass(frozen=True, slots=True)
class MuxFacts:
    """What :func:`mux_requirement` reads from a partition, whatever the
    design: derived once per partition by :func:`mux_facts`."""

    #: Operations per resource class.
    ops_per_class: Dict[str, int]
    #: The widest input-port count among each class's operations.
    input_ports: Dict[str, int]
    #: Primary inputs of the partition.
    input_count: int
    #: Internally produced values, the writers of the PU registers.
    writers: int


def mux_facts(graph: DataFlowGraph, op_class: Mapping[str, str]) -> MuxFacts:
    ops_per_class: Dict[str, int] = {}
    input_ports: Dict[str, int] = {}
    for op_id, cls in op_class.items():
        op = graph.operation(op_id)
        ops_per_class[cls] = ops_per_class.get(cls, 0) + 1
        ports = max(1, len(op.inputs))
        input_ports[cls] = max(input_ports.get(cls, 0), ports)
    return MuxFacts(
        ops_per_class=ops_per_class,
        input_ports=input_ports,
        input_count=len(graph.primary_inputs()),
        writers=sum(
            1 for v in graph.values.values() if v.producer is not None
        ),
    )


def mux_requirement(
    graph: DataFlowGraph,
    allocation: Mapping[str, int],
    op_class: Mapping[str, str],
    register_words: int,
    value_width: int,
    sharing_factor: float = 0.55,
    facts: Optional[MuxFacts] = None,
) -> int:
    """Estimate of 1-bit 2:1 multiplexers implied by resource sharing.

    Each functional unit serving ``m`` operations needs an ``m``-way
    selector — ``m - 1`` two-to-one muxes — per bit on each of its data
    inputs.  Shared registers likewise need write-port selection: with
    ``w`` writers funnelled into ``r`` registers, ``w - r`` muxes per bit
    (zero when nothing is shared).

    ``sharing_factor`` discounts the naive tree count for the wire
    sharing a binder exploits (values feeding several shared units reuse
    the same selected bus): register-transfer binders of the ADAM family
    report roughly half the naive steering, which the default reflects.
    ``facts`` is the partition's :func:`mux_facts`, for callers that
    already hold it; the estimate is then per-design arithmetic only.
    """
    if facts is None:
        facts = mux_facts(graph, op_class)

    # A port's selector cannot be wider than the number of distinct
    # physical sources it can see: registers, the share of primary-input
    # buses falling on that port, and unit outputs.  Deeply serial
    # designs route many operations through few sources, so the naive
    # ops-per-unit fan-in over-counts badly without this cap.
    total_units = sum(max(0, u) for u in allocation.values())
    input_count = facts.input_count

    muxes = 0
    for cls, op_count in facts.ops_per_class.items():
        units = allocation.get(cls, 0)
        if units <= 0:
            raise PredictionError(
                f"resource class {cls!r} missing from allocation"
            )
        if op_count <= units:
            continue  # no sharing, no steering
        ports = facts.input_ports[cls]
        source_cap = max(
            2,
            register_words
            + ceil_div(input_count, max(1, ports))
            + total_units,
        )
        fan_in = min(ceil_div(op_count, units), source_cap)
        muxes += units * ports * (fan_in - 1) * value_width

    # Register write-port steering.  Primary inputs are served from the
    # transfer-module buffers (see value_lifetimes), so only internally
    # produced values write the PU registers — and a register cannot see
    # more distinct writers than there are unit outputs, which caps the
    # steering in deeply serial designs.
    writers = facts.writers
    if register_words > 0 and writers > register_words:
        sharing = min(
            writers - register_words,
            register_words * max(1, total_units - 1),
        )
        muxes += sharing * value_width
    if not (0.0 < sharing_factor <= 1.0):
        raise PredictionError(
            f"sharing factor must be in (0, 1], got {sharing_factor}"
        )
    return int(round(muxes * sharing_factor))


def partition_resource_model(
    graph: DataFlowGraph,
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Resource class of each operation and op counts per class.

    Compute operations share units per :class:`~repro.dfg.ops.OpType`;
    memory operations contend for their block's ports, so each block forms
    its own class (``mem:<block>``).
    """
    op_class: Dict[str, str] = {}
    counts: Dict[str, int] = {}
    for op in graph:
        if op.op_type in MEMORY_OP_TYPES:
            cls = f"mem:{op.memory_block}"
        else:
            cls = op.op_type.value
        op_class[op.id] = cls
        counts[cls] = counts.get(cls, 0) + 1
    return op_class, counts
