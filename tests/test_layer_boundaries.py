"""The BAD layer boundaries the benchmark's traced run wraps.

``perfbench/spans.py`` reads its per-layer metrics by swapping these
names for span-recording wrappers, at the attribute each caller looks
the function up through.  A refactor that routes around one of them
would silently zero its metric, so a counting wrapper on each must see
calls when one paper cell is predicted.
"""

from __future__ import annotations

import repro.bad.allocation as allocation
import repro.bad.predictor as predictor
from repro.bad.scheduling import Schedule
from repro.experiments.setups import experiment1_session

#: (owner, attribute) of every wrapped BAD boundary.
BOUNDARIES = [
    (predictor, "list_schedule"),
    (predictor, "register_requirement"),
    (predictor, "register_bits"),
    (predictor, "mux_requirement"),
    (predictor, "partition_resource_model"),
    (allocation, "value_lifetimes"),
    (Schedule, "modulo_usage"),
]


def test_every_traced_boundary_is_called(monkeypatch):
    calls = {}
    for owner, attr in BOUNDARIES:
        label = f"{owner.__name__}.{attr}"
        calls[label] = 0

        def counting(*args, _original=getattr(owner, attr), _label=label,
                     **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    session = experiment1_session(package_number=1, partition_count=1)
    assert session.predict("P1")
    assert all(calls.values()), calls
