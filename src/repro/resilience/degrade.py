"""Graceful-degradation helpers.

CHOP's contract is "fast, or degraded, but never nothing": an
interactive check should return a *partial* verdict with an explicit
``degraded`` flag rather than hang past its wall-clock budget.  The
search heuristics take a :class:`SoftDeadline` as their ``soft_stop``
hook — unlike a ``cancel`` hook (which raises
:class:`~repro.errors.SearchCancelled` and discards everything), an
expired soft deadline just ends the walk early and keeps what was found.
"""

from __future__ import annotations

import math
import time


class SoftDeadline:
    """A callable that starts returning ``True`` after a wall budget.

    The clock starts at construction; build one per check.  The search
    loops poll it between candidates, so expiry granularity is one
    combination — a loop always evaluates at least one candidate before
    it can stop, which keeps even a zero-ish budget from returning an
    empty non-answer.
    """

    def __init__(self, seconds: float) -> None:
        # NaN compares false to everything and infinity never expires,
        # so both would silently mean "no deadline".
        if not math.isfinite(seconds) or seconds <= 0:
            raise ValueError(
                f"soft deadline must be a positive finite number of "
                f"seconds, got {seconds}"
            )
        self.seconds = seconds
        self._expires_at = time.monotonic() + seconds

    def __call__(self) -> bool:
        return time.monotonic() >= self._expires_at

    expired = __call__

    def remaining_s(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"SoftDeadline({self.seconds}s, "
            f"{self.remaining_s():.3f}s left)"
        )
