"""Cost-aware multi-objective design-space exploration.

CHOP's designer loop answers one question per check: *is this
partitioning feasible?*  This package asks the follow-up the modern
chiplet literature (ChipletPart and friends) made central: *of all the
feasible configurations, which are worth building?*  :func:`explore`
sweeps candidate configurations — chip count crossed with package
scalings, seeded by the paper's horizontal cut or by the multilevel
auto-partitioner — prices each feasible design with the
:mod:`repro.chips.cost` yield model, and keeps the Pareto front over
(cost, performance, delay, chip count) using the same dominance filter
the search layer prunes predictions with.

Every surviving front point carries its full project document, so the
sweep output feeds straight back into ``repro check`` — the explorer
proposes, the paper's feasibility engine still disposes.
"""

from repro.explore.sweep import (
    HEURISTICS,
    OBJECTIVES,
    SEEDINGS,
    ExploreConfig,
    ExplorePoint,
    ExploreResult,
    default_session_factory,
    explore,
    scale_package,
)

__all__ = [
    "ExploreConfig",
    "ExplorePoint",
    "ExploreResult",
    "HEURISTICS",
    "OBJECTIVES",
    "SEEDINGS",
    "default_session_factory",
    "explore",
    "scale_package",
]
