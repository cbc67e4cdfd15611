"""Golden refinement corpus: FM refinement outcomes, pinned exactly.

A refinement case builds the hierarchy :func:`auto_partition` builds for
a generated graph at a chip count ``k`` and a balance tolerance: it
coarsens to ``8 k`` clusters under the same cluster-weight bound, splits
the coarsest level into topological intervals, then projects and runs
:func:`fm_refine` at every level, coarsest first, with one
:class:`RefineStats` across the levels.  Each case stores one sha256
over every level's assignment and the stats after that level
(``moves_tried`` included), and the final stats in the clear.

An end-to-end case pins ``AutoPartitionResult.to_dict()`` of one
:func:`auto_partition` call and a sha256 of its operation assignment.
All but one run on the default session; that one shrinks the die until
the feasibility stage's repair loop migrates operations.

A change to the refinement's bookkeeping must leave every case
unchanged.  A deliberate change to its moves rewrites the file, and its
diff is reviewed like code::

    PYTHONPATH=src python tests/test_auto_refine_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.auto import AutoPartitionConfig, auto_partition
from repro.auto.coarsen import ClusterGraph, coarsen
from repro.auto.initial import topo_interval_split, verify_chain
from repro.auto.partitioner import (
    SessionFactory,
    default_auto_package,
    default_auto_session,
)
from repro.auto.refine import RefineStats, fm_refine, project
from repro.core.chop import ChopSession
from repro.dfg.builders import generate_dfg
from repro.dfg.graph import DataFlowGraph

GOLDEN = Path(__file__).parent / "golden" / "auto_refine.json"

#: (kind, ops, seed) of the refined graphs.  Only layered graphs take
#: the seed.
REFINE_GRAPHS = [
    ("layered", ops, seed) for ops in (60, 150, 400) for seed in range(4)
] + [("chain", 200, 0), ("butterfly", 200, 0)]
CHIPS = (2, 3, 5)
TOLERANCES = (0.1, 0.3, 1.0)

#: Name -> (kind, ops, seed, chips, replicate, die side in mil) of the
#: end-to-end cases; a side of 0 keeps the default package.  At 430 mil
#: the first part predicts too large for its die, and the repair loop
#: migrates 8 operations.
END_TO_END = {
    "auto|layered60s0|k3|replicate": ("layered", 60, 0, 3, True, 0),
    "auto|layered200s7|k3|replicate": ("layered", 200, 7, 3, True, 0),
    "auto|layered200s7|k4": ("layered", 200, 7, 4, False, 0),
    "auto|chain200|k4": ("chain", 200, 0, 4, False, 0),
    "auto|butterfly64|k2": ("butterfly", 64, 0, 2, False, 0),
    "auto|layered200s7|k3|die430": ("layered", 200, 7, 3, False, 430.0),
}

Level = Tuple[ClusterGraph, Dict[int, int], RefineStats]


def refine_levels(
    graph: DataFlowGraph,
    chips: int,
    tolerance: float,
    clusters_per_part: int = 8,
    max_passes: int = 8,
    refine: Callable[..., Dict[int, int]] = fm_refine,
) -> List[Level]:
    """Each level's graph, refined assignment and stats, coarsest first.

    The hierarchy is built as :func:`auto_partition` builds it.  The
    assignment and the stats are copies taken right after ``refine``
    ran on that level; the stats accumulate across levels.
    """
    hierarchy = coarsen(
        graph,
        target_clusters=max(chips, chips * clusters_per_part),
        max_cluster_weight=int(
            (1.0 + tolerance) * graph.op_count() / chips
        ),
    )
    part_of = topo_interval_split(hierarchy[-1].graph, chips)
    stats = RefineStats()
    levels: List[Level] = []
    for level in reversed(range(len(hierarchy))):
        cg = hierarchy[level].graph
        if level < len(hierarchy) - 1:
            part_of = project(part_of, hierarchy[level + 1].projection)
        refine(
            cg, part_of, chips, balance_tolerance=tolerance,
            max_passes=max_passes, stats=stats,
        )
        verify_chain(cg, part_of)
        levels.append((cg, dict(part_of), dataclasses.replace(stats)))
    return levels


def levels_digest(levels: List[Level]) -> str:
    sha = hashlib.sha256()
    for _cg, part_of, stats in levels:
        sha.update(repr(sorted(part_of.items())).encode())
        sha.update(repr(dataclasses.astuple(stats)).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _refine_case(
    kind: str, ops: int, seed: int, chips: int, tolerance: float
) -> Callable[[], List[Level]]:
    return lambda: refine_levels(
        generate_dfg(kind, ops, seed=seed), chips, tolerance
    )


def refine_cases() -> Dict[str, Callable[[], List[Level]]]:
    """Every refinement case, by name, as a thunk building its levels."""
    return {
        f"refine|{kind}{ops}s{seed}|k{chips}|tol{tolerance}": _refine_case(
            kind, ops, seed, chips, tolerance
        )
        for kind, ops, seed in REFINE_GRAPHS
        for chips in CHIPS
        for tolerance in TOLERANCES
    }


REFINE_CASES = refine_cases()


@functools.lru_cache(maxsize=None)
def refine_outcome(
    case: str,
) -> Tuple[Dict[str, object], List[Tuple[int, int]]]:
    """One refinement case's document, and each level's ``cut_after``
    beside the cut its assignment really has; built once per session."""
    levels = REFINE_CASES[case]()
    document = {
        "digest": levels_digest(levels),
        "levels": len(levels),
        "stats": dataclasses.asdict(levels[-1][2]),
    }
    cuts = [
        (stats.cut_after, cg.cut_bits(part_of))
        for cg, part_of, stats in levels
    ]
    return document, cuts


def refine_document(case: str) -> Dict[str, object]:
    return refine_outcome(case)[0]


def _session_on_die(side: float) -> SessionFactory:
    def factory(graph: DataFlowGraph, chips: int) -> ChopSession:
        package = dataclasses.replace(
            default_auto_package(graph, chips),
            width_mil=side, height_mil=side,
        )
        return default_auto_session(graph, chips, package=package)

    return factory


def end_to_end_document(case: str) -> Dict[str, object]:
    kind, ops, seed, chips, replicate, side = END_TO_END[case]
    result = auto_partition(
        generate_dfg(kind, ops, seed=seed),
        AutoPartitionConfig(chips=chips, replicate=replicate),
        session_factory=_session_on_die(side) if side else None,
    )
    assignment = repr(sorted(result.assignment.items())).encode()
    # Through JSON, so tuples compare as the lists the file holds.
    return json.loads(json.dumps({
        "assignment": hashlib.sha256(assignment).hexdigest(),
        "result": result.to_dict(),
    }))


def documents() -> Dict[str, Callable[[], Dict[str, object]]]:
    out: Dict[str, Callable[[], Dict[str, object]]] = {
        case: functools.partial(refine_document, case)
        for case in REFINE_CASES
    }
    for case in END_TO_END:
        out[case] = functools.partial(end_to_end_document, case)
    return out


DOCUMENTS = documents()


def _expected() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_expected()) == sorted(DOCUMENTS)


@pytest.mark.parametrize("case", sorted(DOCUMENTS))
def test_document(case):
    assert DOCUMENTS[case]() == _expected()[case]


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_cut_after_is_the_real_cut(case):
    for cut_after, real_cut in refine_outcome(case)[1]:
        assert cut_after == real_cut


def main(argv: List[str]) -> int:
    current = {case: build() for case, build in sorted(DOCUMENTS.items())}
    if argv == ["--regen"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} documents to {GOLDEN}")
        return 0
    if argv:
        print("usage: test_auto_refine_golden.py [--regen]", file=sys.stderr)
        return 2
    expected = _expected() if GOLDEN.exists() else {}
    changed = sorted(
        case for case in set(current) | set(expected)
        if current.get(case) != expected.get(case)
    )
    for case in changed:
        print(f"{case}: {expected.get(case)} -> {current.get(case)}")
    print(f"{len(current) - len(changed)}/{len(current)} documents unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
