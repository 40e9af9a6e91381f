"""Metric maths shared by the workloads (pure functions, no clocks)."""

from __future__ import annotations

import math

#: Percentiles tried, highest first, when reporting a latency tail.
PERCENTILE_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def supported_percentile(
    n: int, ladder=PERCENTILE_LADDER, beyond: int = MIN_BEYOND
) -> float | None:
    """Highest percentile in ``ladder`` with ``beyond`` samples past it."""
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= beyond:
            return p
    return None


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest supported tail percentile."""
    p = supported_percentile(len(values))
    if p is None:
        raise ValueError(f"{len(values)} samples support no percentile")
    return p, percentile(values, p)


def session_latencies(
    t0: float,
    offsets,
    last_line: dict[str, int],
    arrivals: dict[str, float],
) -> dict[str, float]:
    """Open-loop latency per session, in seconds.

    A session's clock starts when its last line was *due* —
    ``t0 + offsets[last_line[sid]]`` — not when the generator actually
    wrote it, so a stalled generator or a stalled system both count.
    Sessions that never arrived are left out (they are failures).
    """
    return {
        sid: arrivals[sid] - (t0 + offsets[index])
        for sid, index in last_line.items()
        if sid in arrivals
    }


class Ledger:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        if n <= 0:
            return
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def check(self, ok: bool, reason: str) -> None:
        """One attempted check; a failed one is counted under ``reason``."""
        self.attempt()
        if not ok:
            self.fail(reason)

    @property
    def frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
