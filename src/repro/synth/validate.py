"""Prediction-versus-synthesis validation.

:func:`synthesize_prediction` re-derives the schedule a prediction was
built from (the scheduler is deterministic), binds it, and prices the
netlist; :func:`validation_report` runs that over a whole prediction
list and scores the predictor the way the paper's authors scored BAD
against ADAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bad.allocation import partition_resource_model
from repro.bad.prediction import DesignPrediction
from repro.bad.predictor import BADPredictor
from repro.bad.scheduling import list_schedule
from repro.dfg.graph import DataFlowGraph
from repro.errors import PredictionError
from repro.library.library import ComponentLibrary
from repro.synth.binding import bind_design
from repro.synth.netlist import Netlist, build_netlist


@dataclass(frozen=True, slots=True)
class SynthesisComparison:
    """One prediction against its synthesized implementation."""

    prediction: DesignPrediction
    netlist: Netlist

    @property
    def predicted_ml(self) -> float:
        return self.prediction.area_total.ml

    @property
    def actual(self) -> float:
        return self.netlist.area_mil2

    @property
    def within_bounds(self) -> bool:
        """Whether the actual area falls inside the predicted triplet."""
        total = self.prediction.area_total
        return total.lb <= self.actual <= total.ub

    @property
    def relative_error(self) -> float:
        """(most-likely - actual) / actual."""
        return (self.predicted_ml - self.actual) / self.actual


def synthesize_prediction(
    predictor: BADPredictor,
    graph: DataFlowGraph,
    prediction: DesignPrediction,
    op_ids: Optional[Sequence[str]] = None,
) -> Netlist:
    """Carry out one (nonpipelined) prediction's design decisions.

    Pipelined designs need modulo binding and are out of the validation
    scope — :class:`PredictionError` is raised for them.
    """
    if prediction.pipelined:
        raise PredictionError(
            "synthesis validation covers nonpipelined designs; "
            "pipelined binding is modulo and not implemented"
        )
    sub = graph.subgraph_ops(op_ids) if op_ids is not None else graph
    op_class, _counts = partition_resource_model(sub)
    duration = predictor._durations(
        sub, prediction.module_set, predictor._memory_cycles(sub)
    )
    delay_ns, cycle_ns = predictor._chaining_model(
        sub, prediction.module_set
    )
    if duration and max(duration.values()) > 1:
        delay_ns, cycle_ns = None, None
    capacities = predictor._capacities(prediction.operators)
    schedule = list_schedule(
        sub, duration, op_class, capacities,
        delay_ns=delay_ns, cycle_ns=cycle_ns,
    )
    bound = bind_design(sub, schedule)
    width = max((v.width for v in sub.values.values()), default=1)
    return build_netlist(
        sub, schedule, bound, prediction.module_set,
        predictor.library, width,
        pla_params=predictor.params.pla,
        wiring_params=predictor.params.wiring,
    )


def validation_report(
    predictor: BADPredictor,
    graph: DataFlowGraph,
    predictions: Sequence[DesignPrediction],
    op_ids: Optional[Sequence[str]] = None,
) -> List[SynthesisComparison]:
    """Synthesize every nonpipelined prediction and compare areas."""
    comparisons: List[SynthesisComparison] = []
    for prediction in predictions:
        if prediction.pipelined:
            continue
        netlist = synthesize_prediction(
            predictor, graph, prediction, op_ids
        )
        comparisons.append(
            SynthesisComparison(prediction=prediction, netlist=netlist)
        )
    if not comparisons:
        raise PredictionError(
            "no nonpipelined predictions to validate against"
        )
    return comparisons
