"""Structured logging: level filtering, sinks, trace correlation."""

import io
import json
import pathlib

import pytest

from repro.obs.logging import (
    LOG_ENV,
    LOG_FILE_ENV,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.obs.tracing import Tracer, activate


@pytest.fixture(autouse=True)
def clean_logging(monkeypatch):
    monkeypatch.delenv(LOG_ENV, raising=False)
    monkeypatch.delenv(LOG_FILE_ENV, raising=False)
    reset_logging()
    yield
    reset_logging()


def lines(stream: io.StringIO):
    return [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if line
    ]


class TestLevels:
    def test_unset_env_means_off(self, capsys):
        get_logger("t").error("should not appear")
        assert capsys.readouterr().err == ""

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging(level="warning", stream=stream)
        log = get_logger("t")
        log.debug("no")
        log.info("no")
        log.warning("yes")
        log.error("yes too")
        out = lines(stream)
        assert [r["level"] for r in out] == ["warning", "error"]

    def test_env_level_applies_lazily(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setenv(LOG_ENV, "info")
        configure_logging(stream=stream)  # level from env
        log = get_logger("t")
        log.debug("no")
        log.info("yes")
        assert [r["msg"] for r in lines(stream)] == ["yes"]

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="loud")


class TestRecords:
    def test_record_shape_and_fields(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        get_logger("svc").info("drain started", jobs=3)
        (record,) = lines(stream)
        assert record["logger"] == "svc"
        assert record["msg"] == "drain started"
        assert record["jobs"] == 3
        assert isinstance(record["ts"], float)
        assert "trace_id" not in record

    def test_trace_correlation(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        tracer = Tracer(trace_id="trace-42")
        with activate(tracer):
            with tracer.span("work"):
                get_logger("svc").info("inside span")
        (record,) = lines(stream)
        assert record["trace_id"] == "trace-42"
        assert record["span_id"]

    def test_file_sink(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging(level="info", path=str(path))
        get_logger("svc").info("to file")
        reset_logging()  # close the handle
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert records[0]["msg"] == "to file"

    def test_env_file_sink(self, tmp_path, monkeypatch):
        path = tmp_path / "env-log.jsonl"
        monkeypatch.setenv(LOG_ENV, "info")
        monkeypatch.setenv(LOG_FILE_ENV, str(path))
        get_logger("svc").info("lazy env config")
        reset_logging()
        assert "lazy env config" in path.read_text()


#: Keyword fields of every kind a caller passes: JSON scalars, a tuple
#: (written as a list) and a non-JSON object (written as its ``str``).
FIELDS = {
    "jobs": 3,
    "ratio": 0.5,
    "ok": True,
    "missing": None,
    "tags": ("a", "b"),
    "path": pathlib.PurePosixPath("/srv/chop"),
}


def log_inside_and_outside_spans(log):
    """One record with no tracer, one under an active tracer outside
    any span, one inside a span, and a filtered debug record; returns
    the span's id."""
    log.debug("below the level")
    log.info("outside", **FIELDS)
    tracer = Tracer(trace_id="trace-42")
    with activate(tracer):
        log.warning("traced", step=1)
        with tracer.span("work") as work:
            log.error("in span", step=2)
    return work.span_id


def expected_records(span_id):
    return [
        {
            "level": "info", "logger": "svc", "msg": "outside",
            "jobs": 3, "ratio": 0.5, "ok": True, "missing": None,
            "tags": ["a", "b"], "path": "/srv/chop",
        },
        {
            "level": "warning", "logger": "svc", "msg": "traced",
            "step": 1, "trace_id": "trace-42",
        },
        {
            "level": "error", "logger": "svc", "msg": "in span",
            "step": 2, "trace_id": "trace-42", "span_id": span_id,
        },
    ]


def assert_exact_lines(text, span_id):
    """Every line is the expected record, byte for byte, but ``ts``."""
    lines_ = text.splitlines()
    expected = expected_records(span_id)
    assert len(lines_) == len(expected)
    for line, record in zip(lines_, expected):
        ts = json.loads(line)["ts"]
        assert isinstance(ts, float)
        assert line == json.dumps({**record, "ts": ts}, sort_keys=True)


class TestPinnedRecords:
    """The exact JSONL bytes of each sink, inside and outside spans."""

    def test_stream_sink(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        span_id = log_inside_and_outside_spans(get_logger("svc"))
        assert_exact_lines(stream.getvalue(), span_id)

    def test_file_sink(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "log.jsonl"
        configure_logging(level="info", path=str(path))
        span_id = log_inside_and_outside_spans(get_logger("svc"))
        reset_logging()
        assert_exact_lines(path.read_text(encoding="utf-8"), span_id)

    def test_file_sink_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("earlier\n", encoding="utf-8")
        configure_logging(level="info", path=str(path))
        get_logger("svc").info("later")
        reset_logging()
        first, second = path.read_text(encoding="utf-8").splitlines()
        assert first == "earlier"
        assert json.loads(second)["msg"] == "later"

    @pytest.mark.parametrize("explicit", [False, True])
    def test_env_sink(self, tmp_path, monkeypatch, explicit):
        path = tmp_path / "env-log.jsonl"
        monkeypatch.setenv(LOG_ENV, "INFO")
        monkeypatch.setenv(LOG_FILE_ENV, str(path))
        if explicit:
            configure_logging()  # what `chop serve` does on boot
        span_id = log_inside_and_outside_spans(get_logger("svc"))
        reset_logging()
        assert_exact_lines(path.read_text(encoding="utf-8"), span_id)

    def test_reset_stops_the_file_sink(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging(level="info", path=str(path))
        log = get_logger("svc")
        log.info("kept")
        reset_logging()
        log.info("after reset: off, unset env")
        assert [
            json.loads(line)["msg"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ] == ["kept"]
