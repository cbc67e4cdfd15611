"""Fuzzing the behavioral language against Python's own arithmetic.

Random expression trees are printed as specification text, parsed, and
evaluated; the result must match direct evaluation of the same tree with
16-bit two's-complement masking.  This exercises tokenizer, precedence,
parenthesisation and the graph/interpreter stack in one loop.  Random
text, mostly malformed, must compile or end in a SpecificationError.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.dfg.evaluate import evaluate_outputs
from repro.dfg.graph import DataFlowGraph
from repro.dfg.parser import parse_spec
from repro.errors import SpecificationError

_MASK = (1 << 16) - 1

#: (token, python evaluator) for each supported binary operator.
_OPERATORS = [
    ("+", lambda a, b: (a + b) & _MASK),
    ("-", lambda a, b: (a - b) & _MASK),
    ("*", lambda a, b: (a * b) & _MASK),
    ("&", lambda a, b: a & b),
    ("|", lambda a, b: a | b),
]


@st.composite
def expression_trees(draw, depth=0):
    """A random expression tree over inputs i0..i3."""
    if depth >= 4 or draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=3))
        return ("leaf", f"i{index}")
    token, _fn = _OPERATORS[
        draw(st.integers(min_value=0, max_value=len(_OPERATORS) - 1))
    ]
    left = draw(expression_trees(depth=depth + 1))
    right = draw(expression_trees(depth=depth + 1))
    return ("node", token, left, right)


def _render(tree) -> str:
    if tree[0] == "leaf":
        return tree[1]
    _kind, token, left, right = tree
    return f"({_render(left)} {token} {_render(right)})"


def _evaluate(tree, env) -> int:
    if tree[0] == "leaf":
        return env[tree[1]]
    _kind, token, left, right = tree
    fn = dict(_OPERATORS)[token]
    return fn(_evaluate(left, env), _evaluate(right, env))


@given(expression_trees(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=120, deadline=None)
def test_parsed_expression_matches_python(tree, seed):
    if tree[0] == "leaf":
        return  # a bare name is not an operation; nothing to check
    rng = random.Random(seed)
    env = {f"i{k}": rng.randrange(0, 1 << 16) for k in range(4)}
    spec = (
        "input i0, i1, i2, i3\n"
        f"y = {_render(tree)}\n"
        "output y\n"
    )
    graph = parse_spec(spec)
    outputs = evaluate_outputs(graph, env)
    assert outputs["y"] == _evaluate(tree, env)


@given(expression_trees())
@settings(max_examples=60, deadline=None)
def test_parsed_graphs_are_valid(tree):
    if tree[0] == "leaf":
        return
    spec = (
        "input i0, i1, i2, i3\n"
        f"y = {_render(tree)}\n"
        "output y\n"
    )
    graph = parse_spec(spec)
    from repro.dfg.transforms import validate_graph

    problems = [
        p
        for p in validate_graph(graph)
        if "never produced nor consumed" not in p  # unused inputs ok
    ]
    assert problems == []


#: Random specifications: statement-shaped lines with random operands
#: and expressions, junk lines, and arbitrary text.  Some compile, most
#: are malformed, a few nest or unroll without bound.
_NUMBERS = st.sampled_from(["0", "3", "64", "99999999999999999999999"])
_NAMES = st.sampled_from(["a", "b", "y", "x$i"])
_EXPRESSIONS = st.lists(
    st.sampled_from([
        "a", "b", "y", "x$i", "3", "(", ")", "read M[", "]", " + ",
        " * ", " << ", " < ", " | ", " / ",
    ]),
    min_size=1, max_size=8,
).map("".join)
_LINES = st.one_of(
    st.builds("graph g width {}".format, _NUMBERS),
    st.just("input a, b"),
    st.just("memory M"),
    st.builds("{} = {}".format, _NAMES, _EXPRESSIONS),
    st.builds("repeat {} as i:".format, _NUMBERS),
    st.just("end"),
    st.builds("output {}".format, _NAMES),
    st.builds("write M, {}".format, _EXPRESSIONS),
    st.text(alphabet="graphinpumoywte $#=,()[]<+*09", max_size=20),
)
_SPEC_TEXTS = st.one_of(
    st.lists(_LINES, max_size=12).map(
        lambda body: "\n".join(["input a, b", "memory M", *body, "output a"])
    ),
    st.lists(_LINES, max_size=14).map("\n".join),
    st.text(max_size=200),
)


@given(_SPEC_TEXTS)
@settings(max_examples=400, deadline=None)
def test_every_text_yields_a_graph_or_a_specification_error(text):
    try:
        graph = parse_spec(text)
    except SpecificationError:
        return
    assert isinstance(graph, DataFlowGraph)
