"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.bad.predictor import BADPredictor
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core.feasibility import FeasibilityCriteria
from repro.dfg.benchmarks import (
    ar_lattice_filter,
    differential_equation,
    elliptic_wave_filter,
    fir_filter,
)
from repro.dfg.builders import GraphBuilder
from repro.library.presets import extended_library, table1_library


@pytest.fixture(scope="session")
def ar_graph():
    return ar_lattice_filter()


@pytest.fixture(scope="session")
def ewf_graph():
    return elliptic_wave_filter()


@pytest.fixture(scope="session")
def fir_graph():
    return fir_filter(8)


@pytest.fixture(scope="session")
def diffeq_graph():
    return differential_equation()


@pytest.fixture(scope="session")
def library():
    return table1_library()


@pytest.fixture(scope="session")
def big_library():
    return extended_library()


@pytest.fixture
def tiny_graph():
    """y = (a * b) + c — three inputs, two operations, one output."""
    b = GraphBuilder("tiny")
    a = b.input("a")
    bb = b.input("b")
    c = b.input("c")
    p = b.mul(a, bb)
    y = b.add(p, c, name="y")
    b.output(y)
    return b.build()


@pytest.fixture
def chain_graph():
    """A pure chain of four additions (tests serialization limits)."""
    b = GraphBuilder("chain")
    x = b.input("x")
    k = b.input("k")
    v = x
    for _ in range(4):
        v = b.add(v, k)
    b.output(v)
    return b.build()


@pytest.fixture(scope="session")
def exp1_clocks():
    return ClockScheme(300.0, dp_multiplier=10, transfer_multiplier=1)


@pytest.fixture(scope="session")
def exp2_clocks():
    return ClockScheme(300.0, dp_multiplier=1, transfer_multiplier=1)


@pytest.fixture(scope="session")
def exp1_style():
    return ArchitectureStyle(OperationTiming.SINGLE_CYCLE)


@pytest.fixture(scope="session")
def exp2_style():
    return ArchitectureStyle(OperationTiming.MULTI_CYCLE)


@pytest.fixture(scope="session")
def exp1_criteria():
    return FeasibilityCriteria(performance_ns=30_000.0, delay_ns=30_000.0)


@pytest.fixture(scope="session")
def package64():
    return mosis_package(1)


@pytest.fixture(scope="session")
def package84():
    return mosis_package(2)


@pytest.fixture(scope="session")
def exp1_predictor(library, exp1_clocks, exp1_style):
    return BADPredictor(library, exp1_clocks, exp1_style)


@pytest.fixture(scope="session")
def exp2_predictor(library, exp2_clocks, exp2_style):
    return BADPredictor(library, exp2_clocks, exp2_style)


@pytest.fixture()
def pool_always(monkeypatch):
    """Send every engine walk to the process pool, however small its
    space (the engine otherwise keeps spaces below
    ``MIN_COMBINATIONS`` in process)."""
    import repro.engine.workers as workers_module

    monkeypatch.setattr(workers_module, "MIN_COMBINATIONS", 1)
