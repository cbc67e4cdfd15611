"""Golden integration corpus: every ``integrate()`` outcome, pinned by digest.

A state is a partitioning with its level-1 pruned prediction lists, its
clocks and its library.  Every combination of the lists (in the walk's
flat order) is integrated at its own initiation interval plus 0, 1, 7
and 40, with the walk's one shared :class:`IntegrationPlan`.  Each
outcome is the :class:`SystemPrediction` repr, or the error's type and
message; one sha256 over all of them is stored per state.  The
partitioning is left out of the repr, because it is the state itself and
its repr is an object address.

The states are the seven multi-partition paper cells, the shared-chip
state, experiment 1 package 1 with k = 3 on packages of 6 to 40 pins
(and on 400 pins, whose pads consume the die), and the memory designs of
``examples/memory_partitioning.py`` and ``examples/figure2_scenario.py``
with their blocks on and off the accessing chip (the windowed filter
also on 24-pin packages and with a transfer clock three main cycles
long, which slows its memory blocks).  Together they reach every
integration failure: the pin budget, memory I/O over the pins, a
transfer with no data pins, memory bandwidth at an interval, pads that
consume the die, a data clash and pins oversubscribed in the urgency
schedule (see ``BRANCHES``).

A refactor of the integration model must leave every digest unchanged.
A deliberate model change rewrites the file, and its diff is reviewed
like code::

    PYTHONPATH=src python tests/test_integration_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import runpy
import sys
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Mapping, NamedTuple, Sequence,
)

import pytest

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ClockScheme
from repro.chips.chip import Chip
from repro.core.chop import ChopSession
from repro.core.integration import IntegrationPlan, integrate
from repro.core.partitioning import Partitioning
from repro.core.tasks import build_task_graph
from repro.engine.sharding import combination_count, decode_combination
from repro.errors import ChopError
from repro.experiments.setups import experiment1_session, experiment2_session
from repro.library.library import ComponentLibrary

GOLDEN = Path(__file__).parent / "golden" / "integration_outcomes.json"
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Offsets added to each combination's own initiation interval.
II_OFFSETS = (0, 1, 7, 40)

#: (cell, experiment, package, partition count) of the paper cells whose
#: walk combines more than one prediction list.
MULTI_PARTITION_CELLS = [
    (f"exp1_pkg{pkg}_k{k}", 1, pkg, k) for pkg in (1, 2) for k in (2, 3)
] + [(f"exp2_k{k}", 2, 2, k) for k in (3, 4, 5)]

#: Package pin counts of the pin sweep over experiment 1, package 1, k = 3.
PIN_SWEEP = (6, 8, 10, 12, 16, 20, 24, 32, 40, 400)


class State(NamedTuple):
    partitioning: Partitioning
    lists: Mapping[str, Sequence[DesignPrediction]]
    clocks: ClockScheme
    library: ComponentLibrary


def outcomes(state: State) -> Iterator[str]:
    """Every combination's outcome at every interval offset, in order."""
    partitioning = state.partitioning
    plan = IntegrationPlan(
        partitioning, build_task_graph(partitioning), state.clocks,
        state.library,
    )
    names = sorted(partitioning.partitions)
    lists = [state.lists[name] for name in names]
    radices = [len(options) for options in lists]
    for flat in range(combination_count(radices)):
        digits = decode_combination(flat, radices)
        selection = {
            name: options[digit]
            for name, options, digit in zip(names, lists, digits)
        }
        base = max(pred.ii_main for pred in selection.values())
        for offset in II_OFFSETS:
            try:
                system = integrate(
                    partitioning, selection, base + offset, state.clocks,
                    state.library, plan=plan,
                )
            except ChopError as exc:
                yield f"{type(exc).__name__}: {exc}"
            else:
                yield repr(dataclasses.replace(system, partitioning=None))


def digest(state: State) -> str:
    sha = hashlib.sha256()
    for outcome in outcomes(state):
        sha.update(outcome.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def example_session(name: str, *args) -> ChopSession:
    """``build_session(*args)`` of one script of ``examples/``."""
    return runpy.run_path(str(EXAMPLES / f"{name}.py"))["build_session"](*args)


def _state(session: ChopSession, **changes) -> State:
    state = State(
        session.partitioning(), session.pruned_predictions(),
        session.clocks, session.library,
    )
    return state._replace(**changes)


def _on_pins(session: ChopSession, pins: int) -> State:
    """The session's state with every chip's package cut to ``pins`` pins.

    The level-1 lists stay the session's: they are pruned against the
    die area left after the supply pads alone, which the pin count does
    not change.
    """
    base = session.partitioning()
    chips = [
        Chip(name, dataclasses.replace(
            chip.package, name=f"{chip.package.name}/{pins}",
            pin_count=pins,
        ))
        for name, chip in base.chips.items()
    ]
    partitioning = Partitioning(
        base.graph, base.partitions.values(), chips, base.partition_chip,
        base.memories.values(), base.memory_chip,
    )
    return _state(session, partitioning=partitioning)


def _paper_cell(experiment: int, package: int, k: int) -> State:
    if experiment == 1:
        return _state(experiment1_session(package, k))
    return _state(experiment2_session(k))


def _shared_chip() -> State:
    """Experiment 1, package 1, k = 3 with P1 moved onto chip2."""
    session = experiment1_session(package_number=1, partition_count=3)
    session.move_partition("P1", "chip2")
    return _state(session)


def _memory(m_in_chip: str, pins: int = 0, transfer: int = 1) -> State:
    """The windowed filter: P1 on chip1 reads M_IN, P2 on chip2 writes
    M_OUT (on chip2).  ``pins`` cuts the packages; ``transfer`` slows the
    transfer clock, and with it each block's access rate."""
    session = example_session("memory_partitioning", m_in_chip)
    state = _on_pins(session, pins) if pins else _state(session)
    return state._replace(clocks=dataclasses.replace(
        state.clocks, transfer_multiplier=transfer,
    ))


def _figure2() -> State:
    """Figure 2 as the example places it: M_A on its reader's chip, M_B
    off its writer's chip."""
    return _state(example_session("figure2_scenario"))


def cases() -> Dict[str, Callable[[], State]]:
    """Every golden state, by name, as a thunk building it."""
    out: Dict[str, Callable[[], State]] = {
        cell: (lambda e=experiment, p=package, k=k: _paper_cell(e, p, k))
        for cell, experiment, package, k in MULTI_PARTITION_CELLS
    }
    out["shared_chip"] = _shared_chip
    for pins in PIN_SWEEP:
        out[f"exp1_pkg1_k3_pins{pins}"] = lambda pins=pins: _on_pins(
            experiment1_session(package_number=1, partition_count=3), pins
        )
    for chip in ("chip1", "chip2"):
        out[f"memory_m_in_{chip}"] = lambda chip=chip: _memory(chip)
        out[f"memory_m_in_{chip}_pins24"] = lambda chip=chip: _memory(
            chip, pins=24
        )
        out[f"memory_m_in_{chip}_transfer3"] = lambda chip=chip: _memory(
            chip, transfer=3
        )
    out["figure2"] = _figure2
    return out


CASES = cases()

#: One state per integration failure branch, with a fragment of the
#: outcome the branch produces there.
BRANCHES = {
    "pin budget": ("exp1_pkg1_k3_pins6", "ChipError: pin reservations"),
    "memory I/O": (
        "memory_m_in_chip2_pins24", "memory I/O needs more pins",
    ),
    "no data pins": ("exp1_pkg1_k3_pins10", "no data pins available"),
    "bandwidth": (
        "memory_m_in_chip1_transfer3", "access cycles per iteration",
    ),
    "pads": ("exp1_pkg1_k3_pins400", "pads consume the entire die"),
    "data clash": ("exp1_pkg1_k3_pins12", "would cause data clashes"),
    "oversubscription": ("exp1_pkg1_k3_pins12", "pins are oversubscribed"),
}


def _expected() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_corpus_reaches_every_failure_branch(branch):
    case, fragment = BRANCHES[branch]
    assert any(fragment in outcome for outcome in outcomes(CASES[case]()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outcome_digest(case):
    assert digest(CASES[case]()) == _expected()[case]


def main(argv: List[str]) -> int:
    current = {case: digest(build()) for case, build in sorted(CASES.items())}
    if argv == ["--regen"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} digests to {GOLDEN}")
        return 0
    if argv:
        print("usage: test_integration_golden.py [--regen]", file=sys.stderr)
        return 2
    expected = _expected() if GOLDEN.exists() else {}
    changed = sorted(
        case for case in set(current) | set(expected)
        if current.get(case) != expected.get(case)
    )
    for case in changed:
        print(f"{case}: {expected.get(case)} -> {current.get(case)}")
    print(f"{len(current) - len(changed)}/{len(current)} digests unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
