"""The paper's Figure 2 configuration, end to end.

Figure 2 shows "an example partitioning consisting of 5 partitions
(P1 - P5), and 2 memory units (M_A and M_B) as a four-chip design",
illustrating that

* multiple partitions can share a chip,
* memory blocks can sit on the same chips as partitions,
* and cyclic data flow is allowed **among chips** (Chip 4 hosts two
  partitions whose chain P3 -> P5 returns data to a chip it already
  received data from) while the partition-level graph stays acyclic.

This example constructs a pipeline with that exact topology, checks it
with CHOP, and prints the task graph (the paper's Figure 3) plus the
feasibility outcome.

Run:  python examples/figure2_scenario.py
"""

from __future__ import annotations

from repro import (
    ArchitectureStyle,
    ChopSession,
    ClockScheme,
    FeasibilityCriteria,
    GraphBuilder,
    MemoryModule,
    OperationTiming,
    Partition,
    extended_library,
    mosis_package,
)
from repro.core.tasks import build_task_graph
from repro.reporting import design_guidelines


def five_stage_pipeline():
    """A processing chain with five natural stages.

    P1 reads a window from M_A and scales it; P2 and P3 transform
    different halves; P4 merges and writes to M_B; P5 post-processes
    P3's stream — giving the Figure 2 dependency shape
    P1 -> {P2, P3}, {P2, P3} -> P4, P3 -> P5.
    """
    b = GraphBuilder("figure2-pipeline", default_width=16)
    addresses = [b.input(f"addr{i}") for i in range(4)]
    gains = [b.input(f"g{i}") for i in range(4)]
    offset = b.input("offset")

    # P1: fetch and scale.
    fetched = [b.mem_read(addresses[i], "M_A") for i in range(4)]
    scaled = [b.mul(fetched[i], gains[i]) for i in range(4)]

    # P2: sum-side transform of the first half.
    s1 = b.add(scaled[0], scaled[1])
    s2 = b.add(s1, offset)
    s3 = b.mul(s2, gains[0])

    # P3: difference-side transform of the second half.
    d1 = b.sub(scaled[2], scaled[3])
    d2 = b.mul(d1, gains[1])
    d3 = b.add(d2, offset)

    # P4: merge and store.
    merged = b.add(s3, d3, name="merged")
    b.mem_write(merged, "M_B")
    b.output(merged)

    # P5: post-process P3's stream.
    post = b.mul(d3, gains[2], name="post")
    b.output(post)

    stages = {
        "P1": [
            op_id
            for op_id in b._operations  # test/demo: builder internals
            if b._operations[op_id].op_type.value in ("mem_read",)
        ]
        + [v_op(b, v) for v in scaled],
        "P2": [v_op(b, s1), v_op(b, s2), v_op(b, s3)],
        "P3": [v_op(b, d1), v_op(b, d2), v_op(b, d3)],
        "P4": [v_op(b, merged)]
        + [
            op_id
            for op_id in b._operations
            if b._operations[op_id].op_type.value == "mem_write"
        ],
        "P5": [v_op(b, post)],
    }
    return b.build(), stages


def v_op(builder: GraphBuilder, value_id: str) -> str:
    """Operation producing a value (builder-internal helper)."""
    producer = builder._values[value_id].producer
    assert producer is not None
    return producer


def build_session() -> ChopSession:
    """The Figure 2 design on four chips.

    P1 on chip1 reads M_A and P4 on chip3 writes M_B; M_A sits beside
    its reader and M_B on chip2, off its writer's chip.
    """
    graph, stages = five_stage_pipeline()
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0, dp_multiplier=1, transfer_multiplier=1),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=60_000.0, delay_ns=120_000.0
        ),
        memories=[
            MemoryModule("M_A", words=64, width_bits=16,
                         access_time_ns=250.0),
            MemoryModule("M_B", words=64, width_bits=16,
                         access_time_ns=250.0),
        ],
    )
    # Four chips; chip4 hosts two partitions (P3 and P5), as in Figure 2.
    for index in range(1, 5):
        session.add_chip(f"chip{index}", mosis_package(2))
    session.assign_memory("M_A", "chip1")
    session.assign_memory("M_B", "chip2")
    assignment = {
        "P1": "chip1",
        "P2": "chip2",
        "P3": "chip4",
        "P4": "chip3",
        "P5": "chip4",
    }
    session.set_partitions(
        [Partition.of(name, ops) for name, ops in stages.items()],
        assignment,
    )
    return session


def main() -> None:
    session = build_session()
    partitioning = session.partitioning()
    print("Partition dependencies (acyclic, as section 2.3 requires):")
    for src, dst in partitioning.partition_dependencies():
        print(f"  {src} -> {dst}")
    print()
    task_graph = build_task_graph(partitioning)
    print("Task graph (the paper's Figure 3):")
    for name in task_graph.topological_order():
        task = task_graph.tasks[name]
        chips = "/".join(task.chips) if task.chips else "-"
        bits = f"{task.bits} bits" if task.moves_data else "PU"
        print(f"  {name:<16} [{bits:>9}] on {chips}")
    print()

    result = session.check("iterative")
    best = result.best()
    if best is None:
        print("No feasible implementation under these constraints.")
        return
    print(
        f"Feasible: II {best.ii_main}, delay {best.delay_main}, clock "
        f"{best.clock_cycle_ns:.0f} ns "
        f"({result.feasible_trials} of {result.trials} trials)"
    )
    print()
    print(design_guidelines(best))


if __name__ == "__main__":
    main()
