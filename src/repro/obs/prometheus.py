"""Prometheus text exposition (format 0.0.4) of the metrics registry.

Rendering is driven entirely by :class:`repro.obs.metrics.MetricsRegistry`
samples — typed counter/gauge/histogram families plus the pull-gauges
derived from legacy ``stats()`` suppliers.  The old path that flattened
the service's nested JSON snapshot is gone; anything that wants to show
up at ``GET /metrics?format=prometheus`` registers a real metric (or a
stats supplier) with the shared registry.

Names are sanitised to ``[a-zA-Z_][a-zA-Z0-9_]*`` and prefixed with the
registry prefix (``chop_`` by default); label values are escaped per the
exposition format (:func:`escape_label_value` / the round-tripping
:func:`unescape_label_value`).  Histograms render the standard
``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet with cumulative
bucket counts ending in ``+Inf``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping

from repro.obs.metrics import MetricsRegistry

PREFIX = "chop"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, prefix: str = PREFIX) -> str:
    """Sanitise ``name`` into the exposition charset, prefixed."""
    cleaned = _NAME_OK.sub("_", str(name))
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return f"{prefix}_{cleaned}"


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (used by the format linter)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:  # unknown escape: keep verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def format_value(value: Any) -> str:
    """A sample value in exposition syntax (ints stay integral)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def sample_line(
    name: str, labels: Mapping[str, str], value: Any
) -> str:
    """One ``name{labels} value`` exposition line."""
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(str(val))}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {format_value(value)}"
    return f"{name} {format_value(value)}"


def _render_family(lines: List[str], doc: Dict[str, Any],
                   prefix: str) -> None:
    name = metric_name(doc["name"], prefix)
    if doc.get("help"):
        help_text = str(doc["help"]).replace("\\", "\\\\")
        help_text = help_text.replace("\n", "\\n")
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {doc['type']}")
    for sample in doc["samples"]:
        labels = sample.get("labels") or {}
        if doc["type"] == "histogram":
            for bound, count in sample["buckets"].items():
                lines.append(
                    sample_line(
                        f"{name}_bucket",
                        {**labels, "le": bound},
                        count,
                    )
                )
            lines.append(
                sample_line(f"{name}_sum", labels, sample["sum"])
            )
            lines.append(
                sample_line(f"{name}_count", labels, sample["count"])
            )
        else:
            lines.append(sample_line(name, labels, sample["value"]))


def render_registry(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus text format 0.0.4."""
    lines: List[str] = []
    for doc in registry.collect():
        _render_family(lines, doc, registry.prefix)
    return "\n".join(lines) + "\n"
