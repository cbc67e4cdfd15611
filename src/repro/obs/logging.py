"""Structured JSONL logging with trace correlation, on :mod:`logging`.

One log event is one JSON object on one line — the same convention as
the trace files (:class:`repro.obs.tracing.JsonlSink`), so the two
streams interleave cleanly and share tooling.  Every record carries
``ts``, ``level``, ``logger``, ``msg``, the call's keyword fields and
the active ``trace_id``/``span_id`` (when a tracer is installed via
:func:`repro.obs.tracing.activate`), so a service log line correlates
with the span tree of the job that produced it.

Records go through the standard library: one ``chop`` logger that does
not propagate, one handler (stderr, a stream or an appended file) and
one JSON formatter.  Configuration is environment-first, matching
``$CHOP_FAULTS``:

* ``$CHOP_LOG`` — minimum level: ``debug``, ``info``, ``warning``,
  ``error`` or ``off``.  Unset means ``off``.
* ``$CHOP_LOG_FILE`` — append records to this JSONL file instead of
  stderr.

Programmatic use::

    from repro.obs.logging import configure_logging, get_logger
    configure_logging(level="info", path="server-log.jsonl")
    log = get_logger("service")
    log.info("drain started", jobs_running=3)

:func:`configure_logging` may be called at any time and affects every
logger immediately; a logger used before any call configures from the
environment.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
from typing import Any, Optional, TextIO

from repro.obs.tracing import current_span_id, current_tracer

LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "off": logging.CRITICAL + 1,
}

LOG_ENV = "CHOP_LOG"
LOG_FILE_ENV = "CHOP_LOG_FILE"

_LOGGER = logging.getLogger("chop")
_LOGGER.propagate = False
_LOCK = threading.Lock()
_configured = False


class _JsonFormatter(logging.Formatter):
    """One record as one sorted-key JSON line."""

    def format(self, record: logging.LogRecord) -> str:
        doc = {
            "ts": record.created,
            "level": record.levelname.lower(),
            "logger": record.chop_name,
            "msg": record.msg,
        }
        tracer = current_tracer()
        if tracer is not None:
            doc["trace_id"] = tracer.trace_id
            span_id = current_span_id()
            if span_id is not None:
                doc["span_id"] = span_id
        doc.update(record.chop_fields)
        return json.dumps(doc, sort_keys=True, default=str)


def configure_logging(
    level: Optional[str] = None,
    path: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> None:
    """(Re)configure the shared logging level and sink.

    ``level=None`` reads ``$CHOP_LOG`` (default ``off``); ``path=None``
    with no ``stream`` reads ``$CHOP_LOG_FILE`` (default stderr).
    """
    global _configured
    if level is None:
        level = os.environ.get(LOG_ENV, "off")
    if path is None and stream is None:
        path = os.environ.get(LOG_FILE_ENV) or None
    try:
        number = LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; use one of {sorted(LEVELS)}"
        ) from None
    with _LOCK:
        _close_handlers()
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            handler = logging.FileHandler(path, encoding="utf-8")
        else:
            handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(_JsonFormatter())
        _LOGGER.addHandler(handler)
        _LOGGER.setLevel(number)
        _configured = True


def reset_logging() -> None:
    """Close the sink and return to unconfigured (tests)."""
    global _configured
    with _LOCK:
        _close_handlers()
        _LOGGER.setLevel(LEVELS["off"])
        _configured = False


def _close_handlers() -> None:
    for handler in list(_LOGGER.handlers):
        _LOGGER.removeHandler(handler)
        handler.close()


class StructuredLogger(logging.LoggerAdapter):
    """``log.info(msg, **fields)`` over the ``chop`` logger; create via
    :func:`get_logger`."""

    def isEnabledFor(self, level: int) -> bool:
        if not _configured:
            configure_logging()
        return self.logger.isEnabledFor(level)

    def process(self, msg: Any, kwargs: Any) -> Any:
        return msg, {
            "extra": {"chop_name": self.extra["name"], "chop_fields": kwargs}
        }


def get_logger(name: str) -> StructuredLogger:
    """A logger writing records named ``name`` to the shared sink."""
    return StructuredLogger(_LOGGER, {"name": name})
