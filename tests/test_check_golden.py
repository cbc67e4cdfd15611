"""Golden check corpus: exact verdict documents of the paper's cells.

Each case is a full ``SearchResult.to_dict()`` without ``cpu_seconds``
(the document the benchmark verifies, too).  The cases are the paper's
nine cells (experiment 1 at packages 1 and 2 with k = 1..3, experiment 2
with k = 3..5) under both heuristics, plus the Figure 7 keep-all walk
(experiment 1, package 2, k = 2, unpruned) with its design-space totals.

A refactor of the search, the engine or the integration model must leave
every document unchanged.  A deliberate model change rewrites the file,
and its diff is reviewed like code::

    PYTHONPATH=src python tests/test_check_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.experiments.setups import experiment1_session, experiment2_session

GOLDEN = Path(__file__).parent / "golden" / "check_results.json"

#: (cell, experiment, package, partition count) — the paper's cells.
PAPER_CELLS = [
    (f"exp1_pkg{pkg}_k{k}", 1, pkg, k) for pkg in (1, 2) for k in (1, 2, 3)
] + [(f"exp2_k{k}", 2, 2, k) for k in (3, 4, 5)]

HEURISTICS = ("iterative", "enumeration")

#: The cells whose walk combines more than one prediction list.
MULTI_PARTITION_CELLS = [cell for cell in PAPER_CELLS if cell[3] > 1]


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
    return out


CASES = cases()


def _expected() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_document(case):
    assert CASES[case]() == _expected()[case]


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
