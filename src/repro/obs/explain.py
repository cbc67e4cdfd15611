"""Feasibility explainability: *why* was a partitioning infeasible?

A CHOP verdict compresses thousands of combination evaluations into one
feasible/infeasible bit per design — useful for the iteration loop,
useless for deciding *what to change*.  The collector here rides along
an enumeration walk (``evaluate_range(collector=...)``) and aggregates,
per constraint, how many combinations that constraint killed and at what
probability margin.  Its report adds the walk's own counters (level-2
area kills, integration failures) and the level-1 pruning census.

The output answers the designer's actual questions: "is it chip area or
system delay?", "which chip?", "how far off is the worst case?", "would
relaxing the delay confidence to 0.7 help?".  Exposed as
:meth:`repro.core.chop.ChopSession.explain`, ``GET /jobs/{id}/explain``
on the service, and ``python -m repro.cli explain`` on the CLI.

Everything here is duck-typed against
:class:`repro.core.feasibility.FeasibilityReport` /
:class:`repro.stats.ConstraintCheck` so the obs package stays
import-light (it must never drag the model in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ConstraintTally:
    """Aggregate outcome of one named constraint across combinations."""

    name: str
    confidence: float = 0.0
    checked: int = 0
    failures: int = 0
    #: How often this constraint was the *first* failed check of a
    #: combination — the paper-loop notion of "what killed it".
    first_blocker: int = 0
    min_probability: Optional[float] = None
    sum_probability: float = 0.0
    #: Worst (most negative) headroom seen across failures, in the
    #: constraint's own unit (mil^2, ns, mW).
    worst_margin: Optional[float] = None

    def record(self, check: Any, first_failure: bool) -> None:
        self.confidence = check.confidence
        self.checked += 1
        if check.passed:
            return
        self.failures += 1
        if first_failure:
            self.first_blocker += 1
        probability = float(check.probability)
        self.sum_probability += probability
        if (
            self.min_probability is None
            or probability < self.min_probability
        ):
            self.min_probability = probability
        margin = float(check.margin)
        if self.worst_margin is None or margin < self.worst_margin:
            self.worst_margin = margin

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "confidence": self.confidence,
            "checked": self.checked,
            "failures": self.failures,
            "failure_rate": (
                round(self.failures / self.checked, 4)
                if self.checked
                else 0.0
            ),
            "first_blocker": self.first_blocker,
        }
        if self.failures:
            doc["min_probability"] = round(self.min_probability or 0.0, 6)
            doc["mean_failing_probability"] = round(
                self.sum_probability / self.failures, 6
            )
            doc["worst_margin"] = round(self.worst_margin or 0.0, 3)
        return doc


class ExplainCollector:
    """Accumulates per-constraint feasibility outcomes during a search.

    Handed into the evaluation loop through
    ``evaluate_range(collector=..., counters=collector.counters)``; not
    thread-safe by design — an explain pass runs the serial walk (the
    per-combination payload would dwarf shard results, exactly like the
    ``keep_all`` figure mode).
    """

    def __init__(self) -> None:
        #: The walk's counters (``combinations``, ``pruned_level2``,
        #: ``integration_infeasible``, ``feasible``), credited by
        #: ``evaluate_range`` itself.
        self.counters: Dict[str, int] = {}
        self.constraints: Dict[str, ConstraintTally] = {}

    def record_report(self, report: Any) -> None:
        """A full constraint evaluation of one combination."""
        first_seen = False
        for check in report.checks:
            tally = self.constraints.get(check.name)
            if tally is None:
                tally = ConstraintTally(name=check.name)
                self.constraints[check.name] = tally
            is_first = not check.passed and not first_seen
            if is_first:
                first_seen = True
            tally.record(check, first_failure=is_first)

    # ------------------------------------------------------------------
    # the report
    # ------------------------------------------------------------------
    def report(
        self,
        combination_count: Optional[int] = None,
        level1: Optional[Dict[str, Dict[str, int]]] = None,
        heuristic: str = "enumeration",
    ) -> "ExplainReport":
        evaluated = self.counters.get("combinations", 0)
        pruned = self.counters.get("pruned_level2", 0)
        unintegrable = self.counters.get("integration_infeasible", 0)
        return ExplainReport(
            heuristic=heuristic,
            combination_count=(
                combination_count
                if combination_count is not None
                else evaluated
            ),
            evaluated=evaluated,
            pruned_level2=pruned,
            integration_infeasible=unintegrable,
            checked=evaluated - pruned - unintegrable,
            feasible=self.counters.get("feasible", 0),
            constraints=dict(self.constraints),
            level1=dict(level1 or {}),
        )


@dataclass
class ExplainReport:
    """The structured per-check breakdown of one explain pass."""

    heuristic: str
    combination_count: int
    evaluated: int
    pruned_level2: int
    integration_infeasible: int
    checked: int
    feasible: int
    constraints: Dict[str, ConstraintTally]
    level1: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def blockers(self) -> List[ConstraintTally]:
        """Constraints ordered by how many combinations they blocked
        first, then by failure count — the designer's fix list."""
        return sorted(
            (t for t in self.constraints.values() if t.failures),
            key=lambda t: (-t.first_blocker, -t.failures, t.name),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "heuristic": self.heuristic,
            "combination_count": self.combination_count,
            "evaluated": self.evaluated,
            "pruned_level2": self.pruned_level2,
            "integration_infeasible": self.integration_infeasible,
            "checked": self.checked,
            "feasible": self.feasible,
            "infeasible": self.evaluated - self.feasible,
            "constraints": {
                name: tally.to_dict()
                for name, tally in sorted(self.constraints.items())
            },
            "blockers": [t.name for t in self.blockers()],
            "level1": {
                name: dict(counts)
                for name, counts in sorted(self.level1.items())
            },
        }

    def render(self) -> str:
        """A terminal-friendly summary for the CLI ``explain`` command."""
        lines = [
            f"explain ({self.heuristic}): {self.evaluated} of "
            f"{self.combination_count} combinations evaluated — "
            f"{self.feasible} feasible",
        ]
        if self.level1:
            lines.append("level-1 pruning (per-partition predictions):")
            for name, counts in sorted(self.level1.items()):
                predicted = counts.get("predicted", 0)
                kept = counts.get("kept", 0)
                lines.append(
                    f"  {name}: kept {kept} of {predicted} predictions"
                )
        lines.append(
            f"level-2 area pruning killed {self.pruned_level2}; "
            f"integration failed for {self.integration_infeasible}"
        )
        blockers = self.blockers()
        if not blockers:
            lines.append(
                "no constraint failures recorded"
                + (
                    " — every checked combination was feasible"
                    if self.feasible
                    else ""
                )
            )
            return "\n".join(lines)
        lines.append(
            f"{'constraint':<18} {'killed':>7} {'failed':>7} "
            f"{'of':>7} {'need':>5} {'min P':>7} {'worst margin':>13}"
        )
        for tally in blockers:
            lines.append(
                f"{tally.name:<18} {tally.first_blocker:>7} "
                f"{tally.failures:>7} {tally.checked:>7} "
                f"{tally.confidence:>5.2f} "
                f"{(tally.min_probability or 0.0):>7.3f} "
                f"{(tally.worst_margin or 0.0):>13.1f}"
            )
        return "\n".join(lines)
