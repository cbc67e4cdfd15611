"""Property-based round-trip tests for the JSON layer."""

from __future__ import annotations

import copy
import json
import random

from hypothesis import given, settings, strategies as st

from repro.dfg.evaluate import evaluate_outputs
from repro.errors import ChopError
from repro.experiments import experiment1_session
from repro.io.graphs import graph_from_dict, graph_to_dict
from repro.io.project import load_project, session_to_dict
from tests.strategies import dags


@given(dags())
@settings(max_examples=50, deadline=None)
def test_graph_round_trip_structure(graph):
    rebuilt = graph_from_dict(graph_to_dict(graph))
    assert sorted(rebuilt.operations) == sorted(graph.operations)
    assert rebuilt.op_counts_by_type() == graph.op_counts_by_type()
    assert {v.id for v in rebuilt.primary_inputs()} == {
        v.id for v in graph.primary_inputs()
    }
    assert {v.id for v in rebuilt.primary_outputs()} == {
        v.id for v in graph.primary_outputs()
    }


@given(dags(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_graph_round_trip_semantics(graph, seed):
    """Serialisation must not change what the graph computes."""
    rng = random.Random(seed)
    inputs = {
        v.id: rng.randrange(0, 1 << 16)
        for v in graph.primary_inputs()
    }
    rebuilt = graph_from_dict(graph_to_dict(graph))
    assert evaluate_outputs(rebuilt, inputs) == evaluate_outputs(
        graph, inputs
    )


@given(dags())
@settings(max_examples=30, deadline=None)
def test_document_survives_json_text(graph):
    """The dictionary form is genuinely JSON (no exotic objects)."""
    text = json.dumps(graph_to_dict(graph))
    rebuilt = graph_from_dict(json.loads(text))
    assert rebuilt.op_count() == graph.op_count()


@given(dags())
@settings(max_examples=25, deadline=None)
def test_double_round_trip_is_stable(graph):
    once = graph_to_dict(graph)
    twice = graph_to_dict(graph_from_dict(once))
    assert once == twice


# ----------------------------------------------------------------------
# hostile project documents
# ----------------------------------------------------------------------
#: Values a JSON client can put in any leaf; ``json.loads`` accepts
#: ``NaN`` and ``Infinity`` as numbers.
HOSTILE_VALUES = [
    float("nan"), float("inf"), float("-inf"), -1, 0, 1.5, True, None,
    "", "x", [], {},
]

#: One edit per failure class that used to escape the loader or a later
#: check as an untyped exception: (leaf path, value).
HOSTILE_EDITS = [
    (("chips", 0, "package", "pin_count"), float("inf")),
    (("clocks", "dp_multiplier"), float("inf")),
    (("library", "components", 0, "bit_width"), float("inf")),
    (("graph", "inputs", 0, "width"), float("inf")),
    (("partitions", 0, "name"), -1),
    (("partitions", 0, "name"), True),
    (("library", "components", 0, "name"), 1.5),
    (("criteria", "performance_ns"), float("nan")),
    (("criteria", "performance_ns"), float("inf")),
    (("criteria", "delay_ns"), float("nan")),
    (("library", "components", 0, "area_mil2"), float("nan")),
    (("chips", 0, "package", "pad_delay_ns"), float("nan")),
]


def leaf_paths(node, path=()):
    """Every scalar leaf of a JSON document, as a key/index path."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaf_paths(value, path + (index,))
    else:
        yield path


def mutated(document, path, value):
    """A deep copy of ``document`` with one leaf replaced."""
    doc = copy.deepcopy(document)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


#: Experiment 1, package 2, k = 2 as a project document.
_DOCUMENT = session_to_dict(
    experiment1_session(package_number=2, partition_count=2)
)
_LEAVES = list(leaf_paths(_DOCUMENT))


@given(st.sampled_from(_LEAVES), st.sampled_from(HOSTILE_VALUES))
@settings(max_examples=60, deadline=None)
def test_hostile_leaf_is_a_typed_error(path, value):
    """Any one hostile leaf ends in a verdict or a ChopError."""
    doc = json.loads(json.dumps(mutated(_DOCUMENT, path, value)))
    try:
        load_project(doc).check("iterative")
    except ChopError:
        pass
