"""Shared plumbing: locating the program, digests, percentiles, the
yardstick that scales op times to a fixed host speed."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The seed the committed expectations were generated with.  Every
#: workload draws its inputs from a committed case list, so the digests
#: cover every seed; the seed only orders and picks among the cases.
DEFAULT_SEED = 1

#: Set-up is repeated at least this many times per run, and for at least
#: this long, and its median reported: a set-up of a few hundredths of a
#: second needs dozens of repeats before a collector pause stops moving it.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

HEURISTICS = ("iterative", "enumeration")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ProgramMissing(f"no program under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([location, SRC]) != SRC:
        raise ProgramMissing(
            f"repro imported from {location}, not from {SRC}"
        )


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_pickle(obj: object) -> str:
    """sha256 of the protocol-4 pickle (stable across supported Pythons)."""
    return digest_bytes(pickle.dumps(obj, protocol=4))


def digest_json(doc: object) -> str:
    return digest_bytes(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    )


def verdict_doc(result_dict: Dict) -> Dict:
    """A ``SearchResult.to_dict()`` without its timing."""
    doc = dict(result_dict)
    doc.pop("cpu_seconds", None)
    return doc


def load_expected(path: str) -> Dict[str, str]:
    with open(path) as handle:
        return json.load(handle)


def percentile(samples: List[float], q: float) -> float:
    """Inclusive linear-interpolation percentile, ``q`` in (0, 100)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[
        int(q) - 1
    ]


#: What one yardstick call takes on the host the figures are quoted for:
#: on the 2-vCPU host this benchmark was tuned on, a quiet phase reads
#: 0.7-0.8 ms, a busy one 1.2 ms and single readings up to 3 ms.
YARDSTICK_S = 0.00075
#: Yardstick calls per reading between ops, the op time between two
#: scalings, and the op time between two readings taken inside ops.
YARDSTICK_CALLS = 8
SLICE_S = 0.2
SAMPLE_S = 0.03


class Yardstick:
    """Host-speed readings from a fixed pure-Python task.

    The host runs the same code at speeds up to 1.7x apart, in phases of
    seconds to minutes, and the guest sees no steal time to subtract.
    So the yardstick is timed while the benchmark runs, and each slice of
    about ``SLICE_S`` of op time is scaled by ``YARDSTICK_S`` over the
    mean reading in that slice: a time in seconds of a host on which one
    call takes ``YARDSTICK_S``.

    Readings are taken inside ops where the op runs in this process: an
    interval timer interrupts the op every ``SAMPLE_S`` of op time, runs
    one warm-up and one timed call, and the whole interruption is taken
    off the op's time.  A long op is then scaled by the host's speed
    while it ran, not at its ends.  Where the op waits on another process
    (``service_mix``) an interruption would delay the reply, so readings
    are taken between ops instead.

    The task is a graph walk over slotted objects with string-keyed dict
    writes and a sort, the interpreter work the program mostly does.  It
    allocates two collector-tracked objects per call, and the timed call
    follows a warm-up, so neither the program's heap nor its cache
    footprint moves a reading much.
    """

    def __init__(self) -> None:
        import random

        rng = random.Random(5)
        nodes = [_Node(f"n{i}", rng.random()) for i in range(4000)]
        for node in nodes:
            node.succ = [nodes[rng.randrange(len(nodes))] for _ in range(3)]
        self.nodes = nodes[::4]
        self.readings: List[float] = []
        self.samples: List[float] = []
        self.spent = 0.0
        self.remaining = SAMPLE_S
        self.last = self.read()

    def _task(self) -> int:
        best = {}
        for node in self.nodes:
            succ = max(node.succ, key=_weight)
            best[node.name] = succ.weight + node.weight
        return len(sorted(best.values()))

    def read(self) -> float:
        """Seconds per yardstick call, now."""
        self._task()
        began = time.perf_counter()
        for _ in range(YARDSTICK_CALLS):
            self._task()
        return (time.perf_counter() - began) / YARDSTICK_CALLS

    def restart(self) -> None:
        """Take a fresh reading to scale what follows from."""
        self.last = self.read()
        self.samples = []

    def start(self) -> None:
        """Take readings inside the op about to run."""
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.remaining, SAMPLE_S)

    def stop(self) -> float:
        """Stop the readings; the seconds they took off the op."""
        remaining, _interval = signal.setitimer(signal.ITIMER_REAL, 0)
        self.remaining = remaining or SAMPLE_S
        return self.spent

    def _sample(self, _signum, _frame) -> None:
        began = time.perf_counter()
        self._task()
        timed = time.perf_counter()
        self._task()
        done = time.perf_counter()
        self.samples.append(done - timed)
        self.spent += done - began

    def scale(self) -> float:
        """Factor from wall time to yardstick-host time for the ops since
        the last scaling: from the readings taken inside them, or else
        from the mean of a reading taken now and the one before."""
        if self.samples:
            speed = statistics.fmean(self.samples)
            self.readings.extend(self.samples)
            self.samples = []
        else:
            reading = self.read()
            self.readings.append(reading)
            speed = (self.last + reading) / 2.0
            self.last = reading
        return YARDSTICK_S / speed


class _Node:
    __slots__ = ("name", "weight", "succ")

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        self.succ: List["_Node"] = []


def _weight(node: _Node) -> float:
    return node.weight


@dataclass
class Op:
    """One measured operation of a run.

    ``kind`` is ``class|detail``: ops of one kind do the same work, and
    the class (``hit``, ``cold``, ...) groups kinds.  ``wall`` is the
    op's wall time; ``seconds`` is that time on the yardstick host (see
    :class:`Yardstick`), which every timing metric is computed from.
    """

    kind: str
    wall: float
    error: Optional[str] = None
    seconds: float = 0.0


#: What a workload's pass yields: the op's kind and a thunk that runs
#: it.  The thunk returns ``(key, output)``; the runner times the thunk
#: only, then hands ``(key, output)`` to the workload's ``verify``.
OpThunk = Tuple[str, Callable[[], Tuple[str, object]]]


@dataclass
class WorkloadBase:
    """The contract each workload module implements.

    ``setup`` builds every input and warms caches (timed, repeated);
    ``passes`` yields one pass of ops — a pass is the smallest unit whose
    mix is identical for every seed, and runs always end on a pass
    boundary; ``verify`` checks one op's output (returns an error string
    or None) and ``finish`` any checks it deferred past the timed loop.
    """

    seed: int
    scale: str
    expected: Dict[str, str]
    min_ops: int = 1
    #: The :class:`spans.Tracer` during the traced run, else None.
    tracer: object = None

    op_definition = ""
    verification = "digest"
    #: Whether the traced run wraps the program's functions in this
    #: process, and whether the yardstick reads inside ops (both False
    #: where the program runs in another process).
    wrap_program = True
    sample_inside = True

    def setup(self) -> None:
        raise NotImplementedError

    def passes(self, index: int) -> Iterator[OpThunk]:
        raise NotImplementedError

    def verify(self, op_index: int, key: str, output: object
               ) -> Optional[str]:
        want = self.expected.get(key)
        if want is None:
            return f"no expected digest for {key}"
        if self.digest(output) != want:
            return f"digest mismatch for {key}"
        return None

    def digest(self, output: object) -> str:
        return digest_json(output)

    def finish(self) -> Dict[int, str]:
        """Checks deferred past the timed loop: ``{op index: error}``."""
        return {}

    def snapshot(self) -> object:
        """Program-side counters before a traced run (see ``extras``)."""
        return None

    def extras(self, before: object, ops: List[Op]) -> Dict[str, float]:
        """Per-layer values read from the program rather than spans."""
        return {}

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def regen(self) -> Dict[str, str]:
        """Expected digests for every case this workload can draw."""
        return {}
