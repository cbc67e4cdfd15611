"""Structured JSONL logging with trace correlation.

One log event is one JSON object on one line — the same convention as
the trace files (:class:`repro.obs.tracing.JsonlSink`), so the two
streams interleave cleanly and share tooling.  Every record carries the
active ``trace_id``/``span_id`` (when a tracer is installed via
:func:`repro.obs.tracing.activate`), so a service log line correlates
with the span tree of the job that produced it.

Configuration is environment-first, matching ``$CHOP_FAULTS``:

* ``$CHOP_LOG`` — minimum level: ``debug``, ``info``, ``warning``,
  ``error`` or ``off``.  Unset means ``off``: logging costs one integer
  compare per call site and emits nothing.
* ``$CHOP_LOG_FILE`` — append records to this JSONL file instead of
  stderr.

Programmatic use::

    from repro.obs.logging import configure_logging, get_logger
    configure_logging(level="info", path="server-log.jsonl")
    log = get_logger("service")
    log.info("drain started", jobs_running=3)

Loggers are cheap name-bound views over one shared, lock-protected
configuration; :func:`configure_logging` may be called at any time and
affects every logger immediately.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, TextIO

from repro.obs.tracing import current_span_id, current_tracer

LEVELS = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "off": 100,
}

LOG_ENV = "CHOP_LOG"
LOG_FILE_ENV = "CHOP_LOG_FILE"


def _level_number(level: str) -> int:
    try:
        return LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; use one of {sorted(LEVELS)}"
        ) from None


class _Config:
    """The process-wide logging configuration (level + sink)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._level = LEVELS["off"]
        self._emit: Callable[[Dict[str, Any]], None] = self._emit_stderr
        self._handle: Optional[TextIO] = None
        self._configured = False

    # -- sinks ---------------------------------------------------------
    def _emit_stderr(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        print(line, file=sys.stderr, flush=True)

    def _emit_file(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            handle = self._handle
            if handle is None or handle.closed:
                return
            handle.write(line + "\n")
            handle.flush()

    # -- configuration -------------------------------------------------
    def configure(
        self,
        level: Optional[str] = None,
        path: Optional[str] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        """Set level and sink; ``None`` falls back to the environment."""
        if level is None:
            level = os.environ.get(LOG_ENV, "off")
        if path is None and stream is None:
            path = os.environ.get(LOG_FILE_ENV) or None
        number = _level_number(level)
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None
            self._level = number
            if path:
                directory = os.path.dirname(os.path.abspath(path))
                os.makedirs(directory, exist_ok=True)
                self._handle = open(path, "a", encoding="utf-8")
                self._emit = self._emit_file
            elif stream is not None:
                def _emit_stream(record: Dict[str, Any]) -> None:
                    print(
                        json.dumps(
                            record, sort_keys=True, default=str
                        ),
                        file=stream,
                        flush=True,
                    )
                self._emit = _emit_stream
            else:
                self._emit = self._emit_stderr
            self._configured = True

    def ensure_configured(self) -> None:
        """Lazy first-use configuration from the environment."""
        with self._lock:
            configured = self._configured
        if not configured:
            self.configure()

    @property
    def level(self) -> int:
        return self._level

    def emit(self, record: Dict[str, Any]) -> None:
        self._emit(record)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None
            self._emit = self._emit_stderr
            self._configured = False
            self._level = LEVELS["off"]


_CONFIG = _Config()


def configure_logging(
    level: Optional[str] = None,
    path: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> None:
    """(Re)configure the shared logging level and sink.

    ``level=None`` reads ``$CHOP_LOG`` (default ``off``); ``path=None``
    with no ``stream`` reads ``$CHOP_LOG_FILE`` (default stderr).
    """
    _CONFIG.configure(level=level, path=path, stream=stream)


def reset_logging() -> None:
    """Close the sink and return to unconfigured (tests)."""
    _CONFIG.close()


class StructuredLogger:
    """A named view over the shared configuration; create via
    :func:`get_logger`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def is_enabled(self, level: str) -> bool:
        _CONFIG.ensure_configured()
        return _level_number(level) >= _CONFIG.level

    def log(self, level: str, msg: str, **fields: Any) -> None:
        _CONFIG.ensure_configured()
        number = _level_number(level)
        if number < _CONFIG.level:
            return
        record: Dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "logger": self.name,
            "msg": msg,
        }
        tracer = current_tracer()
        if tracer is not None:
            record["trace_id"] = tracer.trace_id
            span_id = current_span_id()
            if span_id is not None:
                record["span_id"] = span_id
        if fields:
            record.update(fields)
        _CONFIG.emit(record)

    def debug(self, msg: str, **fields: Any) -> None:
        self.log("debug", msg, **fields)

    def info(self, msg: str, **fields: Any) -> None:
        self.log("info", msg, **fields)

    def warning(self, msg: str, **fields: Any) -> None:
        self.log("warning", msg, **fields)

    def error(self, msg: str, **fields: Any) -> None:
        self.log("error", msg, **fields)


def get_logger(name: str) -> StructuredLogger:
    """A logger bound to ``name`` over the shared configuration."""
    return StructuredLogger(name)
