"""Golden check corpus: exact verdict documents of the paper's cells.

Each case is a full ``SearchResult.to_dict()`` without ``cpu_seconds``
(the document the benchmark verifies, too).  The cases are the paper's
nine cells (experiment 1 at packages 1 and 2 with k = 1..3, experiment 2
with k = 3..5) under both heuristics, plus the Figure 7 keep-all walk
(experiment 1, package 2, k = 2, unpruned) with its design-space totals,
two memory designs of ``examples/``: the windowed filter of
``memory_partitioning.py`` with M_IN off its reader's chip, and the
Figure 2 design of ``figure2_scenario.py``, two generated states of
experiment 2 with k = 5 where two partitions share a chip (see
:data:`SHARED_CHIP_STATES`), and five paper cells under edited delay
criteria (see :data:`DELAY_STATES`): experiment 2 with k = 5 at a
24,600 ns delay limit, where the delay fails on the critical path alone
for about half of the walked combinations (check and explain
documents), experiment 1, package 1, k = 3 at a delay confidence of
1e-12, which a delay of probability 0 still meets, experiment 2 with
k = 5 at a delay confidence of 1.0, experiment 2 with k = 3 at a
21,000 ns delay limit (check and explain documents), and experiment 2
with k = 5 at a delay confidence of 0.5 and a 30,529 ns limit, where a
delay floor that over-reads its DTM controllers drops a feasible
design.  Beside the corpus,
:data:`TRACED_COUNTERS` pins the span counters of a traced check of the
three states where level 2 fires.

A refactor of the search, the engine or the integration model must leave
every document unchanged.  A deliberate model change rewrites the file,
and its diff is reviewed like code::

    PYTHONPATH=src python tests/test_check_golden.py --regen
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.experiments.setups import experiment1_session, experiment2_session
from repro.io.project import load_project, session_to_dict
from repro.obs.tracing import Tracer, activate

GOLDEN = Path(__file__).parent / "golden" / "check_results.json"
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: (cell, experiment, package, partition count) — the paper's cells.
PAPER_CELLS = [
    (f"exp1_pkg{pkg}_k{k}", 1, pkg, k) for pkg in (1, 2) for k in (1, 2, 3)
] + [(f"exp2_k{k}", 2, 2, k) for k in (3, 4, 5)]

HEURISTICS = ("iterative", "enumeration")

#: The cells whose walk combines more than one prediction list.
MULTI_PARTITION_CELLS = [cell for cell in PAPER_CELLS if cell[3] > 1]

#: Memory designs by case name: (example script, ``build_session`` args).
MEMORY_DESIGNS = {
    "memory_m_in_chip2": ("memory_partitioning", ("chip2",)),
    "figure2": ("figure2_scenario", ()),
}


def verdict_doc(result) -> Dict[str, object]:
    doc = result.to_dict()
    doc.pop("cpu_seconds")
    return doc


def _session(experiment: int, package: int, k: int):
    if experiment == 1:
        return experiment1_session(package_number=package, partition_count=k)
    return experiment2_session(partition_count=k)


def _cell_check(experiment: int, package: int, k: int, heuristic: str):
    def run():
        return verdict_doc(_session(experiment, package, k).check(heuristic))

    return run


def shared_chip_session():
    """Experiment 1, package 1, k = 3 with P1 moved onto chip2.

    Two partitions then share a chip, so the level-2 screen (processing
    unit area lower bounds alone overflow a chip) kills combinations;
    on the paper cells every partition has a chip to itself and the
    screen never fires.
    """
    session = experiment1_session(package_number=1, partition_count=3)
    session.move_partition("P1", "chip2")
    return session


#: Experiment 2, k = 5, with one partition moved onto another's chip,
#: by case name: (partition, chip).  Level 2 fires inside subtrees whose
#: pipelined rates already conflict, so a walk that skips such subtrees
#: must still credit each of their combinations to the level-2 screen
#: when it kills it first.  P3 on chip2: 220 level-2 kills of 5,280,
#: 208 of them where the rates conflict at list position 1, 3 or 4.
#: P2 on chip1: 176 kills, 128 of them conflicting at position 3 or 4.
SHARED_CHIP_STATES = {
    "exp2_k5_p3_chip2": ("P3", "chip2"),
    "exp2_k5_p2_chip1": ("P2", "chip1"),
}


def shared_chip_state_session(state: str):
    """The :data:`SHARED_CHIP_STATES` session named ``state``."""
    partition, chip = SHARED_CHIP_STATES[state]
    session = experiment2_session(partition_count=5)
    session.move_partition(partition, chip)
    return session


#: The ``search.enumeration`` span counters of a traced check of each
#: state where level 2 fires.  Tracing does not change the walk, so a
#: subtree skipped for conflicting rates counts as integration-infeasible
#: whole, and a combination whose delay floor (least adjusted clock
#: times critical path) fails the delay check counts as a level-2 kill;
#: explain does neither, so the ``explain|<state>`` documents count
#: other level-2 kills.
TRACED_COUNTERS = {
    "shared_chip": {
        "combinations": 240, "pruned_level2": 168,
        "integration_infeasible": 40, "feasible": 6,
    },
    "exp2_k5_p3_chip2": {
        "combinations": 5280, "pruned_level2": 216,
        "integration_infeasible": 4864, "feasible": 0,
    },
    "exp2_k5_p2_chip1": {
        "combinations": 5280, "pruned_level2": 243,
        "integration_infeasible": 4864, "feasible": 10,
    },
}


def _shared_chip_state_check(state: str):
    def run():
        return verdict_doc(
            shared_chip_state_session(state).check("enumeration")
        )

    return run


def _shared_chip_state_explain(state: str):
    def run():
        return shared_chip_state_session(state).explain().to_dict()

    return run


#: Paper cells under edited criteria, by case name: (session factory,
#: criteria changes).  ``exp2_k5_delay24600``: 24,600 ns is 82 cycles
#: at 300 ns, the median main-clock critical path of the cell's 416
#: walkable combinations (46-177), so about half of them overrun the
#: limit before any integration overhead; 106 designs stay feasible.
#: ``exp1_pkg1_k3_conf1e-12``: ``ConstraintCheck.passed`` allows 1e-12
#: of float noise, so a delay of probability 0 passes a confidence of
#: 1e-12 and 200 of the 240 combinations are feasible.
#: ``exp2_k5_conf1.0``: a delay confidence of 1.0 demands the delay's
#: upper bound, at 1.15 times the adjusted clock's overhead, meet the
#: limit; 174 designs stay feasible.  ``exp2_k3_delay21000``: 21,000 ns
#: (0.7 of the paper's 30,000) leaves 38 feasible designs (check and
#: explain documents).  Both fail the delay check on combinations whose
#: critical path alone fits the limit but whose least adjusted clock
#: does not.
DELAY_STATES = {
    "exp2_k5_delay24600": (
        functools.partial(experiment2_session, partition_count=5),
        {"delay_ns": 24600.0},
    ),
    "exp1_pkg1_k3_conf1e-12": (
        functools.partial(
            experiment1_session, package_number=1, partition_count=3
        ),
        {"delay_confidence": 1e-12},
    ),
    "exp2_k5_conf1.0": (
        functools.partial(experiment2_session, partition_count=5),
        {"delay_confidence": 1.0},
    ),
    "exp2_k3_delay21000": (
        functools.partial(experiment2_session, partition_count=3),
        {"delay_ns": 21000.0},
    ),
    "exp2_k5_conf0.5_delay30529": (
        functools.partial(experiment2_session, partition_count=5),
        {"delay_confidence": 0.5, "delay_ns": 30529.0},
    ),
}


def delay_state_session(state: str):
    """The :data:`DELAY_STATES` session named ``state``, built from its
    cell's project document with the criteria edited."""
    factory, changes = DELAY_STATES[state]
    doc = session_to_dict(factory())
    doc["criteria"].update(changes)
    return load_project(doc)


def _delay_state_check(state: str):
    def run():
        return verdict_doc(delay_state_session(state).check("enumeration"))

    return run


def _delay_state_explain(state: str):
    def run():
        return delay_state_session(state).explain().to_dict()

    return run


def example_session(name: str, *args):
    """``build_session(*args)`` of one script of ``examples/``."""
    return runpy.run_path(str(EXAMPLES / f"{name}.py"))["build_session"](*args)


def _memory_session(design: str):
    script, args = MEMORY_DESIGNS[design]
    return example_session(script, *args)


def _memory_check(design: str, heuristic: str):
    def run():
        return verdict_doc(_memory_session(design).check(heuristic))

    return run


def _memory_explain(design: str):
    def run():
        return _memory_session(design).explain().to_dict()

    return run


def _cell_explain(experiment: int, package: int, k: int):
    def run():
        return _session(experiment, package, k).explain().to_dict()

    return run


def _figure7_explain():
    session = experiment1_session(package_number=2, partition_count=2)
    return session.explain(prune=False).to_dict()


def _shared_chip_explain():
    return shared_chip_session().explain().to_dict()


def _figure7_keep_all():
    result = experiment1_session(package_number=2, partition_count=2).check(
        "enumeration", prune=False, keep_all=True
    )
    doc = verdict_doc(result)
    doc["space"] = {"total": result.space.total, "unique": result.space.unique}
    return doc


def cases() -> Dict[str, Callable[[], Dict[str, object]]]:
    """Every golden case, by name, as a thunk returning its document."""
    out: Dict[str, Callable[[], Dict[str, object]]] = {
        f"{cell}|{heuristic}": _cell_check(experiment, package, k, heuristic)
        for cell, experiment, package, k in PAPER_CELLS
        for heuristic in HEURISTICS
    }
    out["figure7_keep_all"] = _figure7_keep_all
    for cell, experiment, package, k in MULTI_PARTITION_CELLS:
        out[f"explain|{cell}"] = _cell_explain(experiment, package, k)
    out["explain|figure7_unpruned"] = _figure7_explain
    out["explain|shared_chip"] = _shared_chip_explain
    for state in SHARED_CHIP_STATES:
        out[f"{state}|enumeration"] = _shared_chip_state_check(state)
        out[f"explain|{state}"] = _shared_chip_state_explain(state)
    for state in DELAY_STATES:
        out[f"{state}|enumeration"] = _delay_state_check(state)
    for state in ("exp2_k5_delay24600", "exp2_k3_delay21000"):
        out[f"explain|{state}"] = _delay_state_explain(state)
    for design in MEMORY_DESIGNS:
        for heuristic in HEURISTICS:
            out[f"{design}|{heuristic}"] = _memory_check(design, heuristic)
        out[f"explain|{design}"] = _memory_explain(design)
    return out


CASES = cases()


def _expected() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_document(case):
    assert CASES[case]() == _expected()[case]


@pytest.mark.parametrize("state", sorted(TRACED_COUNTERS))
def test_traced_counters(state):
    if state == "shared_chip":
        session = shared_chip_session()
    else:
        session = shared_chip_state_session(state)
    tracer = Tracer()
    with activate(tracer):
        session.check("enumeration")
    (walk,) = [
        s for s in tracer.spans() if s["name"] == "search.enumeration"
    ]
    assert walk["counters"] == TRACED_COUNTERS[state]


def main(argv: List[str]) -> int:
    current = {case: run() for case, run in sorted(CASES.items())}
    if argv == ["--regen"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} documents to {GOLDEN}")
        return 0
    if argv:
        print("usage: test_check_golden.py [--regen]", file=sys.stderr)
        return 2
    expected = _expected() if GOLDEN.exists() else {}
    changed = sorted(
        case for case in set(current) | set(expected)
        if current.get(case) != expected.get(case)
    )
    for case in changed:
        print(f"{case}: changed")
    print(f"{len(current) - len(changed)}/{len(current)} documents unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
