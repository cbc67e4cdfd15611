"""Tests for repro.obs tracing: spans, sinks, engine re-parenting."""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine import EvaluationEngine
from repro.errors import SearchCancelled
from repro.experiments import experiment2_session
from repro.obs import (
    JsonlSink,
    Tracer,
    activate,
    deterministic_span_id,
    load_trace_file,
    render_trace,
    span,
    validate_trace,
)
from repro.obs.tracing import NULL_SPAN


class TestSpanBasics:
    def test_span_without_tracer_is_free_null_context(self):
        with span("anything", attr=1) as sp:
            assert sp is NULL_SPAN
            assert not sp
            assert sp.counters is None
            sp.add("combinations", 10)  # absorbed silently
            sp.put("key", "value")

    def test_spans_nest_under_the_active_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            with span("outer") as outer:
                assert outer
                with span("inner") as inner:
                    inner.add("combinations", 3)
        records = tracer.spans()
        assert [r["name"] for r in records] == ["outer", "inner"]
        outer_rec = next(r for r in records if r["name"] == "outer")
        inner_rec = next(r for r in records if r["name"] == "inner")
        assert outer_rec["parent_id"] is None
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert inner_rec["counters"]["combinations"] == 3
        assert validate_trace(records) == []

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with activate(tracer):
            with span("parent") as parent:
                with span("a"):
                    pass
                with span("b"):
                    pass
        records = {r["name"]: r for r in tracer.spans()}
        assert records["a"]["parent_id"] == records["parent"]["span_id"]
        assert records["b"]["parent_id"] == records["parent"]["span_id"]

    def test_error_status_and_exception_passthrough(self):
        tracer = Tracer()
        with activate(tracer):
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("broken")
        (record,) = tracer.spans()
        assert record["status"] == "error"
        assert "ValueError" in record["attrs"]["error"]

    def test_cancelled_status(self):
        tracer = Tracer()
        with activate(tracer):
            with pytest.raises(SearchCancelled):
                with span("stopped"):
                    raise SearchCancelled("test")
        (record,) = tracer.spans()
        assert record["status"] == "cancelled"

    def test_thread_isolation_of_active_span(self):
        """Concurrent threads sharing one tracer get separate stacks."""
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with activate(tracer):
                with span(name):
                    barrier.wait(5)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        records = tracer.spans()
        assert len(records) == 2
        # Neither thread's span is parented under the other's.
        assert all(r["parent_id"] is None for r in records)


class TestJsonlSink:
    def test_sink_writes_one_valid_json_line_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(str(path)))
        with activate(tracer):
            with span("a"):
                with span("b"):
                    pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["schema"] == 1
        loaded = load_trace_file(str(path))
        assert validate_trace(loaded) == []

    def test_load_trace_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace_file(str(path))


@pytest.mark.usefixtures("pool_always")
class TestEngineReparenting:
    @pytest.fixture(scope="class")
    def session(self):
        return experiment2_session(partition_count=3)

    def test_shard_spans_ship_back_and_reparent(self, session):
        tracer = Tracer()
        engine = EvaluationEngine(workers=2)
        with activate(tracer):
            result = session.check(
                heuristic="enumeration", engine=engine
            )
        records = tracer.spans()
        assert validate_trace(records) == []
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        run = by_name["engine.run"][0]
        shards = by_name["engine.shard"]
        assert len(shards) >= 2
        # Every worker-built shard span was re-parented under the run.
        assert all(s["parent_id"] == run["span_id"] for s in shards)
        # All spans belong to the one trace.
        assert {r["trace_id"] for r in records} == {tracer.trace_id}
        # Shard combination counters add up to the trial count.
        assert sum(
            s["counters"]["combinations"] for s in shards
        ) == result.trials
        # Shard ids are the deterministic function of (trace, index).
        for shard in shards:
            index = shard["attrs"]["shard"]
            assert shard["span_id"] == deterministic_span_id(
                tracer.trace_id, "shard", index
            )
        # The merge span records the replay.
        merge = by_name["engine.merge"][0]
        assert merge["counters"]["replayed_spans"] == len(shards)

    def test_parallel_result_identical_with_tracing_active(self, session):
        engine = EvaluationEngine(workers=2)
        plain = session.check(heuristic="enumeration", engine=engine)
        tracer = Tracer()
        with activate(tracer):
            traced = session.check(
                heuristic="enumeration", engine=engine
            )
        assert traced.trials == plain.trials
        assert len(traced.feasible) == len(plain.feasible)
        assert [d.selection for d in traced.feasible] == [
            d.selection for d in plain.feasible
        ]

    def test_untraced_engine_run_ships_no_spans(self, session):
        engine = EvaluationEngine(workers=2)
        result = session.check(heuristic="enumeration", engine=engine)
        assert result.trials > 0
        # No tracer active: nothing buffered anywhere to leak.
        tracer = Tracer()
        assert tracer.spans() == []


class TestDeterministicIds:
    def test_same_inputs_same_id(self):
        a = deterministic_span_id("trace", "shard", 3)
        b = deterministic_span_id("trace", "shard", 3)
        c = deterministic_span_id("trace", "shard", 4)
        assert a == b != c
        assert len(a) == 16
        int(a, 16)  # hex


class TestRenderTrace:
    def test_render_shows_tree_timings_and_counters(self):
        tracer = Tracer()
        with activate(tracer):
            with span("session.check"):
                with span("search.enumeration") as sp:
                    sp.add("combinations", 42)
        text = render_trace(tracer.spans())
        assert "session.check" in text
        assert "search.enumeration" in text
        assert "combinations=42" in text
        assert "ms" in text
        assert "└─" in text
