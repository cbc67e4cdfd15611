"""Design-space recording for the keep-everything mode.

"Keeping discarded predictions is only useful when the designer wants to
see the entire design space explorable by the tool" (section 2.1).  The
paper's Figures 7 and 8 plot exactly that: every design considered during
a search, with total and unique counts (13 411 / 699 for experiment 1;
21 828 / 8 764 for the one-partition slice of experiment 2).

:class:`DesignSpace` collects one :class:`DesignPoint` per visited design
— both the per-partition predictions BAD emits and the integrated system
predictions the search tries — and reports totals, unique counts and the
area-delay scatter series the figures show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.bad.prediction import DesignPrediction
    from repro.core.integration import SystemPrediction


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One visited design in area-delay space."""

    kind: str  # "partition" or "system"
    area_mil2: float
    delay_cycles: int
    ii_cycles: int
    feasible: Optional[bool] = None

    def signature(self) -> Tuple[str, float, int, int]:
        """Uniqueness key: designs with equal characteristics collapse.

        Area is bucketed to 1000 mil^2 (about 1% of a MOSIS die): designs
        closer than that are indistinguishable at prediction accuracy,
        which is how the paper's figures collapse tens of thousands of
        visited designs into a few hundred unique ones.
        """
        return (
            self.kind,
            round(self.area_mil2 / 1000.0) * 1000.0,
            self.delay_cycles,
            self.ii_cycles,
        )


class DesignSpace:
    """An append-only record of every design a search visits."""

    def __init__(self) -> None:
        self._points: List[DesignPoint] = []
        self._unique: Set[Tuple[str, float, int, int]] = set()

    def record(self, point: DesignPoint) -> None:
        self._points.append(point)
        self._unique.add(point.signature())

    def record_prediction(self, pred: DesignPrediction) -> None:
        """One BAD prediction of one partition."""
        self.record(
            DesignPoint(
                kind="partition",
                area_mil2=pred.area_total.ml,
                delay_cycles=pred.latency_main,
                ii_cycles=pred.ii_main,
            )
        )

    def record_selection(
        self, selection: Mapping[str, DesignPrediction], ii_main: int
    ) -> None:
        """A selection that never integrated, as its predictions' summed
        area and longest latency."""
        predictions = selection.values()
        self.record(
            DesignPoint(
                kind="system",
                area_mil2=sum(p.area_total.ml for p in predictions),
                delay_cycles=max(p.latency_main for p in predictions),
                ii_cycles=ii_main,
                feasible=False,
            )
        )

    def record_system(self, system: SystemPrediction, feasible: bool) -> None:
        """An integrated system, as its chips' summed area."""
        self.record(
            DesignPoint(
                kind="system",
                area_mil2=sum(
                    u.total_area.ml for u in system.chip_usage.values()
                ),
                delay_cycles=system.delay_main,
                ii_cycles=system.ii_main,
                feasible=feasible,
            )
        )

    @property
    def total(self) -> int:
        """Designs considered, counting revisits (the figures' totals)."""
        return len(self._points)

    @property
    def unique(self) -> int:
        """Distinct designs considered."""
        return len(self._unique)

    def points(self, kind: Optional[str] = None) -> List[DesignPoint]:
        if kind is None:
            return list(self._points)
        return [p for p in self._points if p.kind == kind]

    def scatter_series(
        self, kind: Optional[str] = None
    ) -> List[Tuple[float, int]]:
        """(area, delay) pairs of the distinct designs, figure-style."""
        seen: Set[Tuple[str, float, int, int]] = set()
        series: List[Tuple[float, int]] = []
        for point in self._points:
            if kind is not None and point.kind != kind:
                continue
            sig = point.signature()
            if sig in seen:
                continue
            seen.add(sig)
            series.append((point.area_mil2, point.delay_cycles))
        return series

    def __len__(self) -> int:
        return len(self._points)
