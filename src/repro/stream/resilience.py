"""Fault-tolerance primitives for the streaming runtime.

IntelLog's value proposition is always-on, non-intrusive monitoring of
long-running clusters, which means the detection runtime must outlive
the failures it is watching for: rotated and truncated log files, torn
writes, corrupted checkpoints, flaky sinks.  This module collects the
mechanisms the rest of ``repro.stream`` threads through:

* :func:`retry delays <RetryPolicy.delay>` — seeded-jitter exponential
  backoff for transient IO errors (seeded so DET001 stays green and
  chaos runs are reproducible);
* :class:`CircuitBreaker` — consecutive-failure counting that drives
  the runtime's explicit ``HEALTHY → DEGRADED → FAILED`` health state
  machine and accumulates time spent unhealthy;
* :class:`quarantine sinks <Quarantine>` — a dead-letter channel for
  unparseable/binary/torn input lines, each tagged with a reason code,
  so malformed data is preserved and countable instead of raised or
  silently dropped;
* :func:`finalization_id` — the content-addressed identity of one
  closed session, the key of the exactly-once emission ledger carried
  in the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import IO, Any, Callable, Protocol, runtime_checkable

from numpy.random import default_rng

from ..core.config import ResilienceConfig
from ..parsing.records import Session

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "FAILED",
    "REASON_UNPARSEABLE",
    "REASON_BINARY",
    "REASON_DECODE",
    "REASON_TRUNCATED",
    "REASON_IO",
    "REASON_FINALIZE",
    "QUARANTINE_REASONS",
    "RetryPolicy",
    "CircuitBreaker",
    "Quarantine",
    "ListQuarantine",
    "JsonLinesQuarantine",
    "finalization_id",
]

# -- health states ---------------------------------------------------------

HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"

# -- quarantine reason codes ----------------------------------------------

#: Line matched no format and there was no record to fold it into.
REASON_UNPARSEABLE = "unparseable"
#: Line contains NUL bytes — binary data in a text log.
REASON_BINARY = "binary"
#: Line is not valid UTF-8 (torn multi-byte sequence, wrong encoding).
REASON_DECODE = "decode_error"
#: Trailing partial record at end of input (mid-record truncation).
REASON_TRUNCATED = "truncated_record"
#: An IO operation failed; the entry is a note, not a log line.
REASON_IO = "io_error"
#: Close-time detection raised on a (corrupt) session.
REASON_FINALIZE = "finalize_error"

QUARANTINE_REASONS = (
    REASON_UNPARSEABLE,
    REASON_BINARY,
    REASON_DECODE,
    REASON_TRUNCATED,
    REASON_IO,
    REASON_FINALIZE,
)


class RetryPolicy:
    """Seeded-jitter exponential backoff derived from a config.

    ``delay(attempt)`` grows ``base * 2**attempt`` capped at ``max``,
    then applies ``±jitter`` from a seeded generator — deterministic
    per policy instance, never synchronized across restarts that use
    different seeds.
    """

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config or ResilienceConfig()
        self._rng = default_rng(self.config.retry_seed)

    @classmethod
    def for_backoff(
        cls,
        base: float,
        maximum: float,
        jitter: float,
        seed: int,
    ) -> "RetryPolicy":
        """Build a policy from raw backoff knobs.

        The serve-layer supervisor schedules tenant *restarts* with the
        same delay curve as IO retries; this constructor lets it reuse
        :meth:`delay` without inventing a full :class:`ResilienceConfig`
        (retry counts and breaker thresholds are meaningless there).
        """
        return cls(ResilienceConfig(
            retry_base_delay=base,
            retry_max_delay=maximum,
            retry_jitter=jitter,
            retry_seed=seed,
        ))

    @property
    def max_attempts(self) -> int:
        return self.config.retry_attempts

    def delay(self, attempt: int) -> float:
        base = min(
            self.config.retry_base_delay * (2.0 ** max(0, attempt)),
            self.config.retry_max_delay,
        )
        jitter = self.config.retry_jitter
        if jitter <= 0.0:
            return base
        return base * (1.0 + jitter * float(self._rng.uniform(-1.0, 1.0)))


class CircuitBreaker:
    """Consecutive-failure counter behind the health state machine.

    Every failed IO attempt calls :meth:`record_failure`; any success
    calls :meth:`record_success` and snaps the state back to HEALTHY.
    The breaker also accumulates wall-clock time spent out of HEALTHY
    (``degraded_seconds``) against an injectable monotonic clock.
    """

    def __init__(
        self,
        degraded_after: int = 1,
        failed_after: int = 12,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.degraded_after = max(1, degraded_after)
        self.failed_after = max(self.degraded_after, failed_after)
        self._clock = clock or (lambda: 0.0)
        self.consecutive_failures = 0
        self.total_failures = 0
        self._unhealthy_since: float | None = None
        self._degraded_s = 0.0

    @property
    def state(self) -> str:
        if self.consecutive_failures >= self.failed_after:
            return FAILED
        if self.consecutive_failures >= self.degraded_after:
            return DEGRADED
        return HEALTHY

    def record_failure(self) -> str:
        self.consecutive_failures += 1
        self.total_failures += 1
        if (
            self._unhealthy_since is None
            and self.consecutive_failures >= self.degraded_after
        ):
            self._unhealthy_since = self._clock()
        return self.state

    def record_success(self) -> str:
        self.consecutive_failures = 0
        if self._unhealthy_since is not None:
            self._degraded_s += max(
                0.0, self._clock() - self._unhealthy_since
            )
            self._unhealthy_since = None
        return self.state

    def degraded_seconds(self) -> float:
        """Cumulative time out of HEALTHY, including the current spell."""
        # Read once: a concurrent record_success() may None the field
        # between a check and a use (stats threads call this live).
        since = self._unhealthy_since
        live = 0.0
        if since is not None:
            live = max(0.0, self._clock() - since)
        return self._degraded_s + live


# -- quarantine ------------------------------------------------------------


@runtime_checkable
class Quarantine(Protocol):
    """Dead-letter channel for malformed input, with per-reason counts.

    ``put`` may be called from the runtime loop while another thread
    reads stats, so implementations guard their counters and expose a
    consistent :meth:`snapshot` (reading ``counts`` directly during
    concurrent puts can observe a dict mid-resize).
    """

    counts: dict[str, int]

    def put(
        self,
        reason: str,
        line: str,
        source: str = "",
        offset: int | None = None,
    ) -> None:
        ...

    def snapshot(self) -> dict[str, int]:
        ...


class ListQuarantine:
    """Collects quarantined entries in memory (default, tests)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entries: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}

    def put(
        self,
        reason: str,
        line: str,
        source: str = "",
        offset: int | None = None,
    ) -> None:
        entry = _entry(reason, line, source, offset)
        with self._lock:
            self.counts[reason] = self.counts.get(reason, 0) + 1
            self.entries.append(entry)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the per-reason counts."""
        with self._lock:
            return dict(self.counts)


class JsonLinesQuarantine:
    """Appends one JSON object per quarantined line to a file or stream.

    The quarantine file format is one object per line with keys
    ``reason`` (a :data:`QUARANTINE_REASONS` code), ``line`` (the
    offending text, decoded with replacement characters), ``source``
    (the originating file) and ``offset`` (byte offset, when known).
    """

    def __init__(self, target: IO[str] | str | Path) -> None:
        if isinstance(target, (str, Path)):
            self._fp: IO[str] = open(target, "a", encoding="utf-8")
            self._owned = True
        else:
            self._fp = target
            self._owned = False
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}

    def put(
        self,
        reason: str,
        line: str,
        source: str = "",
        offset: int | None = None,
    ) -> None:
        payload = json.dumps(_entry(reason, line, source, offset)) + "\n"
        with self._lock:
            self.counts[reason] = self.counts.get(reason, 0) + 1
        # File IO happens outside the lock: a slow disk must not stall
        # every thread snapshotting the counts (RACE005 by design).
        # Single-line str writes are atomic enough for an append-only
        # dead-letter file; interleaved lines stay individually valid.
        self._fp.write(payload)
        self._fp.flush()

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the per-reason counts."""
        with self._lock:
            return dict(self.counts)

    def close(self) -> None:
        if self._owned:
            self._fp.close()


def _entry(
    reason: str, line: str, source: str, offset: int | None
) -> dict[str, Any]:
    entry: dict[str, Any] = {"reason": reason, "line": line}
    if source:
        entry["source"] = source
    if offset is not None:
        entry["offset"] = offset
    return entry


# -- exactly-once identity -------------------------------------------------


def finalization_id(session: Session) -> str:
    """Content-addressed identity of one closed session.

    A replay after a crash reconstructs byte-identical sessions from the
    same input, so hashing the session id plus every record's
    ``(timestamp, message)`` yields the same id — the checkpointed
    ledger of these ids is what makes report emission exactly-once
    across resume.  Two byte-identical closures of the same session
    (only possible when the input itself was duplicated wholesale)
    deliberately share an id and dedupe.
    """
    # One buffer, one hash call: ``sid \0 app (\0 repr(ts) \x1f msg)*``.
    # Ledgers already on disk hold these digests, so the bytes hashed
    # must not change: encoding the joined text equals joining the
    # encoded parts, since a float's repr is ASCII.
    text = "\x00".join([
        session.session_id,
        session.app_id,
        *[f"{r.timestamp!r}\x1f{r.message}" for r in session.records],
    ])
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()[:20]
