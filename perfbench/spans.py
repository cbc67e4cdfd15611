"""In-memory span recording for the traced benchmark run.

The traced run swaps named public functions of the program for
span-recording wrappers, at the attribute each caller looks the function
up through (``repro.engine.workers.integrate``, ``Schedule.modulo_usage``,
...).  Nothing under ``src/`` changes: the wrappers are installed by
:func:`install` and removed by :meth:`Tracer.restore`.

A span is (name, start, end, parent, op id).  Spans are kept in compact
arrays, because a traced designer loop records hundreds of thousands of
them, and are written out once, when the benchmark ends.  A layer's self
time is its spans' duration minus what their direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Every per-layer metric, in report order: (name, unit, better).
#: ``BENCHMARK.json`` lists exactly these.  Times and counts are per op
#: of the traced run, so a faster layer never reads as more work done.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("bad.predict_s", "s/op", "lower"),
    ("bad.predict_calls", "count/op", "lower"),
    ("bad.predictions_out", "count/op", "lower"),
    ("bad.list_schedule_s", "s/op", "lower"),
    ("bad.modulo_usage_s", "s/op", "lower"),
    ("bad.modulo_usage_calls", "count/op", "lower"),
    ("bad.lifetimes_s", "s/op", "lower"),
    ("bad.lifetimes_calls", "count/op", "lower"),
    ("bad.registers_s", "s/op", "lower"),
    ("bad.mux_s", "s/op", "lower"),
    ("bad.resource_model_s", "s/op", "lower"),
    ("bad.assembly_self_s", "s/op", "lower"),
    ("eval.pruned_map_s", "s/op", "lower"),
    ("eval.task_graph_s", "s/op", "lower"),
    ("eval.hit_ratio", "ratio", "higher"),
    ("eval.invalidations", "count/op", "lower"),
    ("eval.pairs_rebuilt", "count/op", "lower"),
    ("eval.pairs_reused", "count/op", "higher"),
    ("search.level1_prune_s", "s/op", "lower"),
    ("search.level1_kept_ratio", "ratio", "lower"),
    ("search.iterative_s", "s/op", "lower"),
    ("search.iterative_trials", "count/op", "lower"),
    ("search.enumeration_s", "s/op", "lower"),
    ("engine.problem_build_s", "s/op", "lower"),
    ("engine.walk_s", "s/op", "lower"),
    ("engine.area_screen_s", "s/op", "lower"),
    ("engine.combinations", "count/op", "lower"),
    ("engine.pruned_level2", "count/op", "higher"),
    ("engine.integration_infeasible", "count/op", "lower"),
    ("engine.feasible_ratio", "ratio", "higher"),
    ("core.integrate_s", "s/op", "lower"),
    ("core.integrate_calls", "count/op", "lower"),
    ("core.integrate_self_s", "s/op", "lower"),
    ("core.urgency_s", "s/op", "lower"),
    ("core.transfer_s", "s/op", "lower"),
    ("core.evaluate_system_s", "s/op", "lower"),
    ("auto.coarsen_s", "s/op", "lower"),
    ("auto.initial_s", "s/op", "lower"),
    ("auto.refine_s", "s/op", "lower"),
    ("auto.feasibility_s", "s/op", "lower"),
    ("auto.repair_moves", "count/op", "lower"),
    ("auto.levels", "count/op", "lower"),
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.cold_p50_ms", "ms", "lower"),
    ("service.scrape_p50_ms", "ms", "lower"),
    ("service.job_p50_ms", "ms", "lower"),
    ("service.verdict_cache_hit_ratio", "ratio", "higher"),
    ("service.scrape_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Spans and counters of one traced run, plus the patches it made."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- patching -----------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``after(args, result)`` and ``on_error(exc)`` run outside the
        span, so counting costs nothing in the layer's own time.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer.close(index)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- derivation ---------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float],
                              Dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, call count."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_id[i]]
            inclusive[name] += duration[i]
            own[name] += duration[i] - covered[i]
            calls[name] += 1
        return inclusive, own, calls

    def child_seconds(self, parent_name: str, prefix: str) -> float:
        """Time in spans named ``prefix*`` directly under ``parent_name``."""
        parent_id = self._ids.get(parent_name)
        total = 0.0
        for i in range(len(self.start)):
            parent = self.parent[i]
            if (
                parent >= 0
                and self.name_id[parent] == parent_id
                and self.names[self.name_id[i]].startswith(prefix)
            ):
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        arrays = (self.name_id, self.parent, self.op, self.start, self.end)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [
                {"name": field, "typecode": data.typecode,
                 "itemsize": data.itemsize}
                for field, data in zip(
                    ("name_id", "parent", "op", "start", "end"), arrays
                )
            ],
            "counters": dict(self.counters),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for data in arrays:
                data.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.auto.partitioner as auto_partitioner
    import repro.bad.allocation as allocation
    import repro.bad.predictor as predictor
    import repro.core.integration as integration
    import repro.engine.workers as workers
    import repro.search.enumeration as enumeration
    import repro.search.iterative as iterative
    import repro.search.pruning as pruning
    from repro.bad.scheduling import Schedule
    from repro.core.chop import ChopSession
    from repro.errors import InfeasibleError
    from repro.eval.context import EvaluationContext

    count = tracer.count
    patch = tracer.patch

    # repro.bad
    patch(predictor.BADPredictor, "predict_partition", "bad.predict",
          after=lambda a, r: count("bad.predictions_out", len(r)))
    patch(predictor, "list_schedule", "bad.list_schedule")
    patch(Schedule, "modulo_usage", "bad.modulo_usage")
    patch(allocation, "value_lifetimes", "bad.lifetimes")
    patch(predictor, "register_requirement", "bad.registers")
    patch(predictor, "register_bits", "bad.registers")
    patch(predictor, "mux_requirement", "bad.mux")
    patch(predictor, "partition_resource_model", "bad.resource_model")

    # repro.eval
    patch(EvaluationContext, "pruned_map", "eval.pruned_map")
    patch(EvaluationContext, "task_graph", "eval.task_graph")

    # repro.search (ChopSession.check imports both heuristics lazily, and
    # the evaluation context imports level1_prune lazily, so the module
    # attribute is what every call resolves)
    def kept(args, result):
        count("search.level1_in", len(args[0]))
        count("search.level1_kept", len(result))

    patch(pruning, "level1_prune", "search.level1_prune", after=kept)
    patch(iterative, "iterative_search", "search.iterative",
          after=lambda a, r: count("search.iterative_trials", r.trials))
    patch(enumeration, "enumeration_search", "search.enumeration")

    # repro.engine
    def walked(args, result):
        feasible, trials = result
        count("engine.combinations", trials)
        count("engine.feasible", len(feasible))

    def screened(args, hopeless):
        if hopeless:
            count("engine.pruned_level2")

    def unintegrable(exc):
        if isinstance(exc, InfeasibleError):
            count("engine.integration_infeasible")

    patch(workers.EvaluationProblem, "build", "engine.problem_build")
    patch(enumeration, "evaluate_range", "engine.walk", after=walked)
    patch(workers, "chip_area_hopeless", "engine.area_screen",
          after=screened)

    # repro.core (the walk and the iterative heuristic import their own
    # references to integrate / evaluate_system)
    patch(workers, "integrate", "core.integrate", on_error=unintegrable)
    patch(iterative, "integrate", "core.integrate")
    patch(workers, "evaluate_system", "core.evaluate_system")
    patch(iterative, "evaluate_system", "core.evaluate_system")
    patch(integration, "urgency_schedule", "core.urgency")
    patch(integration, "estimate_transfer", "core.transfer")
    patch(integration, "data_transfer_module", "core.transfer")

    # repro.auto
    patch(auto_partitioner, "coarsen", "auto.coarsen")
    patch(auto_partitioner, "topo_interval_split", "auto.initial")
    patch(auto_partitioner, "fm_refine", "auto.refine")

    # the session API (auto.feasibility is the time auto_partition spends
    # directly inside these calls)
    for method in (
        "check", "pruned_predictions", "set_partitions",
        "migrate_operations",
    ):
        patch(ChopSession, method, f"session.{method}")


def layer_metrics(
    tracer: Tracer, ops: int, extra: Dict[str, float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value; layers idle on a workload read 0."""
    inclusive, own, calls = tracer.totals()
    counters = tracer.counters
    per_op = 1.0 / max(ops, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, float] = {
        "bad.predict_s": inclusive["bad.predict"] * per_op,
        "bad.predict_calls": calls["bad.predict"] * per_op,
        "bad.predictions_out": counters["bad.predictions_out"] * per_op,
        "bad.list_schedule_s": inclusive["bad.list_schedule"] * per_op,
        "bad.modulo_usage_s": inclusive["bad.modulo_usage"] * per_op,
        "bad.modulo_usage_calls": calls["bad.modulo_usage"] * per_op,
        "bad.lifetimes_s": inclusive["bad.lifetimes"] * per_op,
        "bad.lifetimes_calls": calls["bad.lifetimes"] * per_op,
        "bad.registers_s": inclusive["bad.registers"] * per_op,
        "bad.mux_s": inclusive["bad.mux"] * per_op,
        "bad.resource_model_s": inclusive["bad.resource_model"] * per_op,
        "bad.assembly_self_s": own["bad.predict"] * per_op,
        "eval.pruned_map_s": inclusive["eval.pruned_map"] * per_op,
        "eval.task_graph_s": inclusive["eval.task_graph"] * per_op,
        "search.level1_prune_s": inclusive["search.level1_prune"] * per_op,
        "search.level1_kept_ratio": ratio(
            counters["search.level1_kept"], counters["search.level1_in"]
        ),
        "search.iterative_s": inclusive["search.iterative"] * per_op,
        "search.iterative_trials": (
            counters["search.iterative_trials"] * per_op
        ),
        "search.enumeration_s": inclusive["search.enumeration"] * per_op,
        "engine.problem_build_s": (
            inclusive["engine.problem_build"] * per_op
        ),
        "engine.walk_s": inclusive["engine.walk"] * per_op,
        "engine.area_screen_s": inclusive["engine.area_screen"] * per_op,
        "engine.combinations": counters["engine.combinations"] * per_op,
        "engine.pruned_level2": counters["engine.pruned_level2"] * per_op,
        "engine.integration_infeasible": (
            counters["engine.integration_infeasible"] * per_op
        ),
        "engine.feasible_ratio": ratio(
            counters["engine.feasible"], counters["engine.combinations"]
        ),
        "core.integrate_s": inclusive["core.integrate"] * per_op,
        "core.integrate_calls": calls["core.integrate"] * per_op,
        "core.integrate_self_s": own["core.integrate"] * per_op,
        "core.urgency_s": inclusive["core.urgency"] * per_op,
        "core.transfer_s": inclusive["core.transfer"] * per_op,
        "core.evaluate_system_s": (
            inclusive["core.evaluate_system"] * per_op
        ),
        "auto.coarsen_s": inclusive["auto.coarsen"] * per_op,
        "auto.initial_s": inclusive["auto.initial"] * per_op,
        "auto.refine_s": inclusive["auto.refine"] * per_op,
        "auto.feasibility_s": (
            tracer.child_seconds("auto.partition", "session.") * per_op
        ),
    }
    values.update(extra)
    return {
        name: float(values.get(name, 0.0)) for name, _unit, _b in PER_LAYER
    }
