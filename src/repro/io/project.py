"""Whole-project (designer session) serialization.

A *project* document carries the paper's six input groups:

.. code-block:: json

    {
      "graph": { ... as repro.io.graphs ... },
      "library": "table1",
      "clocks": {"main_ns": 300.0, "dp_multiplier": 10,
                 "transfer_multiplier": 1},
      "style": {"timing": "single-cycle", "pipelined": true,
                "nonpipelined": true},
      "criteria": {"performance_ns": 30000, "delay_ns": 30000,
                   "delay_confidence": 0.8},
      "chips": [{"name": "chip1", "package": 2}],
      "memories": [{"name": "M", "words": 256, "width_bits": 16,
                    "chip": "chip1"}],
      "partitions": [{"name": "P1", "ops": ["mul1", ...],
                      "chip": "chip1"}]
    }

``library`` is ``"table1"``, ``"extended"`` or an inline component list;
``package`` is a Table 2 number or an inline package object.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from typing import Any, Dict, List, Union

from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.package import ChipPackage
from repro.chips.presets import mosis_package
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.partition import Partition
from repro.dfg.ops import OpType
from repro.errors import SpecificationError
from repro.io.graphs import graph_from_dict, graph_to_dict
from repro.library.component import Cell, Component
from repro.library.library import ComponentLibrary
from repro.library.presets import extended_library, table1_library
from repro.memory.module import MemoryModule


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_project(data: Dict[str, Any]) -> ChopSession:
    """Build a ready-to-check session from a project document.

    Any structural problem — a missing key, a wrong type, an unparsable
    or non-finite number, a name that is not a string — raises
    :class:`SpecificationError`, so callers (the CLI and the serving
    layer) can map every bad document to one clean error.
    """
    if not isinstance(data, dict):
        raise SpecificationError(
            f"malformed project document: expected an object, got "
            f"{type(data).__name__}"
        )
    _check_finite(data)
    try:
        return _load_project_strict(data)
    except (
        KeyError, TypeError, ValueError, AttributeError, OverflowError,
    ) as exc:
        raise SpecificationError(
            f"malformed project document: "
            f"{type(exc).__name__}: {exc}"
        ) from None


def _check_finite(document: Dict[str, Any]) -> None:
    """Reject NaN and infinities anywhere in the document.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; no field of a
    project means anything by them.  The walk keeps its own stack, so
    nesting depth cannot exhaust the interpreter's.
    """
    stack: List[Any] = [("document", document)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, float):
            if not math.isfinite(node):
                raise SpecificationError(
                    f"malformed project document: {path} must be a "
                    f"finite number, got {node!r}"
                )
        elif isinstance(node, dict):
            stack.extend(
                (f"{path}.{key}", value) for key, value in node.items()
            )
        elif isinstance(node, list):
            stack.extend(
                (f"{path}[{index}]", value)
                for index, value in enumerate(node)
            )


def _name(doc: Dict[str, Any], key: str = "name") -> str:
    """A name field, which must be a string."""
    value = doc[key]
    if not isinstance(value, str):
        raise SpecificationError(
            f"malformed project document: {key} must be a string, got "
            f"{value!r}"
        )
    return value


def _load_project_strict(data: Dict[str, Any]) -> ChopSession:
    graph = graph_from_dict(data["graph"])
    clocks_doc = data["clocks"]
    criteria_doc = data["criteria"]
    chip_docs = data["chips"]
    partition_docs = data["partitions"]

    session = ChopSession(
        graph=graph,
        library=_library_from(data.get("library", "table1")),
        clocks=ClockScheme(
            main_cycle_ns=float(clocks_doc["main_ns"]),
            dp_multiplier=int(clocks_doc.get("dp_multiplier", 1)),
            transfer_multiplier=int(
                clocks_doc.get("transfer_multiplier", 1)
            ),
        ),
        style=_style_from(data.get("style", {})),
        criteria=_criteria_from(criteria_doc),
        memories=[_memory_from(m) for m in data.get("memories", ())],
    )
    for chip_doc in chip_docs:
        session.add_chip(
            _name(chip_doc), _package_from(chip_doc["package"])
        )
    for memory_doc in data.get("memories", ()):
        if memory_doc.get("chip") is not None:
            session.assign_memory(
                _name(memory_doc), _name(memory_doc, "chip")
            )
    partitions: List[Partition] = []
    assignment: Dict[str, str] = {}
    for doc in partition_docs:
        name = _name(doc)
        partitions.append(Partition.of(name, doc["ops"]))
        assignment[name] = _name(doc, "chip")
    session.set_partitions(partitions, assignment)
    return session


def load_project_file(path: Union[str, pathlib.Path]) -> ChopSession:
    """Load a project from a JSON file.

    Bytes that are not UTF-8, bad JSON, an integer past the
    interpreter's digit limit (all ``ValueError`` s) and nesting deeper
    than the parser's recursion limit raise :class:`SpecificationError`.
    """
    raw = pathlib.Path(path).read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SpecificationError(f"invalid project JSON: {exc}") from None
    return load_project(data)


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def canonical_project_bytes(data: Dict[str, Any]) -> bytes:
    """Canonical byte encoding of a project document.

    Key order, whitespace and (for partitions) operation-list order are
    normalized so that two documents describing the same session encode
    identically regardless of how they were written.  Operation lists
    that cannot be sorted and nesting past the encoder's recursion
    limit raise :class:`SpecificationError`.
    """
    normalized = dict(data)
    try:
        partitions = normalized.get("partitions")
        if isinstance(partitions, list):
            normalized["partitions"] = [
                {**doc, "ops": sorted(doc["ops"])}
                if isinstance(doc, dict)
                and isinstance(doc.get("ops"), list)
                else doc
                for doc in partitions
            ]
        return json.dumps(
            normalized, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, RecursionError) as exc:
        raise SpecificationError(
            f"malformed project document: {type(exc).__name__}: {exc}"
        ) from None


def project_fingerprint(data: Dict[str, Any]) -> str:
    """Stable SHA-256 hex digest of the canonicalized document.

    The serving layer keys its prediction/verdict caches on this, and
    ``export-demo`` stamps it on its output for provenance.
    """
    return hashlib.sha256(canonical_project_bytes(data)).hexdigest()


# ----------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------
def session_to_dict(session: ChopSession) -> Dict[str, Any]:
    """Serialise a session back into the project schema."""
    partitioning = session.partitioning()
    return {
        "graph": graph_to_dict(session.graph),
        "library": _library_to(session.library),
        "clocks": {
            "main_ns": session.clocks.main_cycle_ns,
            "dp_multiplier": session.clocks.dp_multiplier,
            "transfer_multiplier": session.clocks.transfer_multiplier,
        },
        "style": {
            "timing": session.style.timing.value,
            "pipelined": session.style.allow_pipelined,
            "nonpipelined": session.style.allow_nonpipelined,
        },
        "criteria": {
            "performance_ns": session.criteria.performance_ns,
            "delay_ns": session.criteria.delay_ns,
            "performance_confidence":
                session.criteria.performance_confidence,
            "area_confidence": session.criteria.area_confidence,
            "delay_confidence": session.criteria.delay_confidence,
            "system_power_mw": session.criteria.system_power_mw,
            "chip_power_mw": session.criteria.chip_power_mw,
            "power_confidence": session.criteria.power_confidence,
        },
        "chips": [
            {
                "name": chip.name,
                "package": {
                    "name": chip.package.name,
                    "width_mil": chip.package.width_mil,
                    "height_mil": chip.package.height_mil,
                    "pin_count": chip.package.pin_count,
                    "pad_delay_ns": chip.package.pad_delay_ns,
                    "pad_area_mil2": chip.package.pad_area_mil2,
                },
            }
            for chip in session.chips.values()
        ],
        "memories": [
            {
                "name": module.name,
                "words": module.words,
                "width_bits": module.width_bits,
                "ports": module.ports,
                "access_time_ns": module.access_time_ns,
                "area_per_bit_mil2": module.area_per_bit_mil2,
                "off_the_shelf": module.off_the_shelf,
                "chip": session.memory_chip.get(module.name),
            }
            for module in session.memories.values()
        ],
        "partitions": [
            {
                "name": name,
                "ops": sorted(partition.op_ids),
                "chip": partitioning.chip_of(name),
            }
            for name, partition in sorted(
                partitioning.partitions.items()
            )
        ],
    }


def save_project_file(
    session: ChopSession, path: Union[str, pathlib.Path]
) -> None:
    """Write a session to a JSON project file."""
    pathlib.Path(path).write_text(
        json.dumps(session_to_dict(session), indent=2) + "\n"
    )


# ----------------------------------------------------------------------
# piece converters
# ----------------------------------------------------------------------
def _library_from(doc: Any) -> ComponentLibrary:
    if doc == "table1":
        return table1_library()
    if doc == "extended":
        return extended_library()
    if not isinstance(doc, dict):
        raise SpecificationError(
            f"library must be 'table1', 'extended' or an object, got "
            f"{doc!r}"
        )
    components = [
        Component(
            name=_name(c),
            op_type=OpType(c["type"]),
            bit_width=int(c["bit_width"]),
            area_mil2=float(c["area_mil2"]),
            delay_ns=float(c["delay_ns"]),
        )
        for c in doc["components"]
    ]
    register = Cell(
        _name(doc["register"]),
        float(doc["register"]["area_mil2"]),
        float(doc["register"]["delay_ns"]),
    )
    mux = Cell(
        _name(doc["mux"]),
        float(doc["mux"]["area_mil2"]),
        float(doc["mux"]["delay_ns"]),
    )
    return ComponentLibrary(
        doc.get("name", "custom"), components, register, mux
    )


def _library_to(library: ComponentLibrary) -> Dict[str, Any]:
    components = []
    for op_type in library.supported_op_types():
        for component in library.components_for(op_type):
            components.append(
                {
                    "name": component.name,
                    "type": component.op_type.value,
                    "bit_width": component.bit_width,
                    "area_mil2": component.area_mil2,
                    "delay_ns": component.delay_ns,
                }
            )
    return {
        "name": library.name,
        "components": components,
        "register": {
            "name": library.register.name,
            "area_mil2": library.register.area_mil2,
            "delay_ns": library.register.delay_ns,
        },
        "mux": {
            "name": library.mux.name,
            "area_mil2": library.mux.area_mil2,
            "delay_ns": library.mux.delay_ns,
        },
    }


def _style_from(doc: Dict[str, Any]) -> ArchitectureStyle:
    timing_label = doc.get("timing", "single-cycle")
    try:
        timing = OperationTiming(timing_label)
    except ValueError:
        raise SpecificationError(
            f"unknown timing style {timing_label!r}"
        ) from None
    return ArchitectureStyle(
        timing=timing,
        allow_pipelined=bool(doc.get("pipelined", True)),
        allow_nonpipelined=bool(doc.get("nonpipelined", True)),
    )


def _criteria_from(doc: Dict[str, Any]) -> FeasibilityCriteria:
    return FeasibilityCriteria(
        performance_ns=float(doc["performance_ns"]),
        delay_ns=float(doc["delay_ns"]),
        performance_confidence=float(
            doc.get("performance_confidence", 1.0)
        ),
        area_confidence=float(doc.get("area_confidence", 1.0)),
        delay_confidence=float(doc.get("delay_confidence", 0.8)),
        system_power_mw=(
            float(doc["system_power_mw"])
            if doc.get("system_power_mw") is not None
            else None
        ),
        chip_power_mw=(
            float(doc["chip_power_mw"])
            if doc.get("chip_power_mw") is not None
            else None
        ),
        power_confidence=float(doc.get("power_confidence", 0.9)),
    )


def _package_from(doc: Any) -> ChipPackage:
    if isinstance(doc, int):
        return mosis_package(doc)
    if not isinstance(doc, dict):
        raise SpecificationError(
            f"package must be a Table 2 number or an object, got {doc!r}"
        )
    return ChipPackage(
        name=doc.get("name", "custom"),
        width_mil=float(doc["width_mil"]),
        height_mil=float(doc["height_mil"]),
        pin_count=int(doc["pin_count"]),
        pad_delay_ns=float(doc.get("pad_delay_ns", 25.0)),
        pad_area_mil2=float(doc.get("pad_area_mil2", 297.60)),
    )


def _memory_from(doc: Dict[str, Any]) -> MemoryModule:
    return MemoryModule(
        name=_name(doc),
        words=int(doc["words"]),
        width_bits=int(doc["width_bits"]),
        ports=int(doc.get("ports", 1)),
        access_time_ns=float(doc.get("access_time_ns", 100.0)),
        area_per_bit_mil2=float(doc.get("area_per_bit_mil2", 4.0)),
        off_the_shelf=bool(doc.get("off_the_shelf", False)),
    )
