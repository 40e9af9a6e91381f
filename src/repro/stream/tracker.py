"""Incremental session assembly with bounded memory.

The batch pipeline buffers every record and calls
:func:`repro.parsing.records.split_sessions`; a streaming runtime cannot.
:class:`SessionTracker` assembles the same per-container sessions online:

* records are bucketed by the shared :func:`~repro.parsing.records.
  session_bucket` keying, so tracker output matches ``split_sessions``
  exactly on identical input;
* a session **closes** when an end-marker message arrives (e.g. Spark's
  ``Shutdown hook called``), when it has been idle — in *event time*,
  against the high-watermark of timestamps seen — longer than
  ``idle_timeout``, or when the tracker is flushed;
* when more than ``max_open_sessions`` are open, the least recently
  active session is **evicted** (closed early), keeping memory bounded
  no matter how many containers a job spawns.

Per record the tracker does O(1) bookkeeping: the end markers are one
compiled alternation searched once, and the idle scan over the open
sessions runs only when the idle horizon reaches a kept lower bound on
their ``last_seen``, so each scan closes a session or raises the bound.

Closed sessions come back time-sorted, ready for detection.  A record
may arrive with the match the caller already made for it; the tracker
keeps those matches beside the session's records, sorts them with the
records at close, and hands them on in :attr:`ClosedSession.matches`,
so detection need not match the session again.  The whole tracker state
round-trips through ``state_dict()`` / ``load_state()`` for
checkpointing; matches are not part of it.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..parsing.records import LogRecord, Session, session_bucket
from ..parsing.spell import MatchResult

__all__ = [
    "DEFAULT_END_MARKERS",
    "end_marker_search",
    "TrackerConfig",
    "ClosedSession",
    "SessionTracker",
]

#: Session-end message markers recognized out of the box: the *final*
#: line each targeted system prints as a container winds down.  Markers
#: must only ever match a session's last message — a premature match
#: splits the session in two — so mid-shutdown chatter ("Driver
#: commanded a shutdown", "Task ... done") is deliberately absent;
#: sessions without a terminal marker close via the idle timeout.
DEFAULT_END_MARKERS = (
    r"Deleting directory",                 # Spark ShutdownHookManager
    r"metrics system shutdown complete",   # MapReduce map/reduce tasks
    r"Job end notification started",       # MapReduce ApplicationMaster
    r"TezChild shutdown invoked",          # Tez task containers
    r"Calling stop for all the services",  # Tez DAGAppMaster
)


def end_marker_search(patterns: tuple[str, ...]) -> Callable[[str], object]:
    """One search over all end markers, truthy iff any pattern matches.

    The markers become a single ``(?:p1)|(?:p2)|…`` alternation when no
    pattern has capturing groups (their numbers and names would shift
    or clash across branches) or inline global flags (past the start of
    an expression Python 3.11 rejects them and older versions apply
    them to every branch).  Any other marker set is searched pattern by
    pattern, as one ``re.search`` each.
    """
    compiled = [re.compile(p) for p in patterns]
    if not compiled:
        return lambda message: None
    default_flags = re.compile("").flags
    if all(c.groups == 0 and c.flags == default_flags for c in compiled):
        try:
            return re.compile("|".join(f"(?:{p})" for p in patterns)).search
        except re.error:
            pass  # a no-op inline flag such as "(?u)" (Python >= 3.11)
    return lambda message: any(c.search(message) for c in compiled)


@dataclass(slots=True)
class TrackerConfig:
    """Tunables for online session assembly."""

    #: Event-time seconds without records before a session is closed.
    idle_timeout: float = 300.0
    #: Hard cap on concurrently tracked sessions (LRU eviction above it).
    max_open_sessions: int = 10_000
    #: Regexes that mark a session's final message.
    end_markers: tuple[str, ...] = DEFAULT_END_MARKERS


@dataclass(slots=True)
class ClosedSession:
    """One finished session plus why the tracker closed it."""

    session: Session
    reason: str  # "end_marker" | "idle" | "evicted" | "flush"
    #: Content-addressed identity stamped by the runtime at finalize
    #: time (see :func:`repro.stream.resilience.finalization_id`);
    #: carried through sinks so downstream consumers can dedupe.
    finalization_id: str = ""
    #: One observe-time match per record, in the session's sorted
    #: order; ``None`` when the session has to be matched whole.
    matches: list[MatchResult | None] | None = None


#: ``SessionTracker.observe``'s default ``match``: the record came
#: without one (``None`` is a real result, "no log key matches").
_UNSET: object = object()


@dataclass(slots=True)
class _Open:
    session: Session
    last_seen: float  # event time of the newest record
    #: Matches parallel to ``session.records``; ``None`` once any
    #: record arrived without one, or the session was restored.
    matches: list[MatchResult | None] | None


class SessionTracker:
    """State machine turning a record stream into closed sessions.

    ``_low`` is a lower bound on every open session's ``last_seen``
    (``inf`` when none is open): no session can be idle while the idle
    horizon ``watermark - idle_timeout`` is below it, so
    :meth:`observe` scans the open sessions only once the horizon
    reaches it, and each scan recomputes it.  Sessions only ever leave
    or grow newer, so the bound stays valid in between.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._open: OrderedDict[tuple[str, str], _Open] = OrderedDict()
        self._is_end = end_marker_search(self.config.end_markers)
        self.watermark = float("-inf")  # newest event time seen
        self._low = float("inf")  # <= every open session's last_seen
        self.evictions = 0
        self.peak_open = 0

    # -- ingest -----------------------------------------------------------

    def observe(
        self, record: LogRecord, match: "MatchResult | None" = _UNSET
    ) -> list[ClosedSession]:
        """Ingest one record; return any sessions this closed.

        ``match`` is the record's match against the model's log keys
        (``None``: no key matches).  It is carried to the session's
        :class:`ClosedSession`; a session with a record observed
        without one carries no matches.
        """
        closed: list[ClosedSession] = []
        timestamp = record.timestamp
        key, sid = session_bucket(record)
        entry = self._open.get(key)
        if entry is None:
            entry = _Open(
                session=Session(session_id=sid, app_id=record.app_id),
                last_seen=timestamp,
                matches=[],
            )
            self._open[key] = entry
            if timestamp < self._low:
                self._low = timestamp
        else:
            if timestamp > entry.last_seen:
                entry.last_seen = timestamp
            self._open.move_to_end(key)
        entry.session.append(record)
        if match is _UNSET:
            entry.matches = None
        elif entry.matches is not None:
            entry.matches.append(match)
        if timestamp > self.watermark:
            self.watermark = timestamp

        if self._is_end(record.message):
            del self._open[key]
            closed.append(self._close(entry, "end_marker"))

        horizon = self.watermark - self.config.idle_timeout
        if horizon >= self._low:
            self._expire_idle(horizon, closed)
        if len(self._open) > self.config.max_open_sessions:
            self._evict_over_cap(closed)
        # Peak is recorded post-eviction: the cap is a hard bound on
        # tracked sessions, so peak_open never exceeds it.
        if len(self._open) > self.peak_open:
            self.peak_open = len(self._open)
        return closed

    def flush(self) -> list[ClosedSession]:
        """Close everything still open (end of input / shutdown)."""
        closed = [
            self._close(entry, "flush") for entry in self._open.values()
        ]
        self._open.clear()
        self._low = float("inf")
        return closed

    def evict_lru(self, count: int) -> list[ClosedSession]:
        """Force-close the ``count`` least recently active sessions.

        Used by the serving layer to enforce a *global* budget across
        tenants: each tracker's own ``max_open_sessions`` cap still
        applies, but the fleet scheduler may demand extra evictions
        when the sum over tenants exceeds the shared budget.  Evicted
        sessions flow through the normal closure path (reason
        ``"evicted"``) and count toward :attr:`evictions`.
        """
        closed: list[ClosedSession] = []
        for _ in range(min(count, len(self._open))):
            _, entry = self._open.popitem(last=False)
            self.evictions += 1
            closed.append(self._close(entry, "evicted"))
        return closed

    def drop_matches(self) -> None:
        """Forget the carried matches of every open session.

        Matches are valid only for the model that made them; after a
        model swap each open session is matched whole at close.
        """
        for entry in self._open.values():
            entry.matches = None

    @property
    def open_count(self) -> int:
        return len(self._open)

    # -- closure policies -------------------------------------------------

    def _expire_idle(self, horizon: float, closed: list) -> None:
        # LRU order ≠ event-time order when records arrive out of order
        # across sessions, so scan for expired entries rather than only
        # popping from the front; the survivors give the new bound.
        expired = []
        low = float("inf")
        for key, entry in self._open.items():
            if entry.last_seen <= horizon:
                expired.append(key)
            elif entry.last_seen < low:
                low = entry.last_seen
        self._low = low
        for key in expired:
            closed.append(self._close(self._open.pop(key), "idle"))

    def _evict_over_cap(self, closed: list) -> None:
        while len(self._open) > self.config.max_open_sessions:
            _, entry = self._open.popitem(last=False)
            self.evictions += 1
            closed.append(self._close(entry, "evicted"))

    @staticmethod
    def _close(entry: _Open, reason: str) -> ClosedSession:
        session, matches = entry.session, entry.matches
        if matches is None:
            session.sort()
        else:
            # The stable timestamp sort Session.sort() does, applied to
            # (record, match) pairs so both lists get one permutation.
            pairs = sorted(
                zip(session.records, matches),
                key=lambda pair: pair[0].timestamp,
            )
            session.records = [record for record, _ in pairs]
            matches = [match for _, match in pairs]
        return ClosedSession(session=session, reason=reason, matches=matches)

    # -- checkpoint state -------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every open session."""
        return {
            "watermark": (
                None if self.watermark == float("-inf")
                else self.watermark
            ),
            "evictions": self.evictions,
            "peak_open": self.peak_open,
            "open": [
                {
                    "key": list(key),
                    "session_id": entry.session.session_id,
                    "app_id": entry.session.app_id,
                    "last_seen": entry.last_seen,
                    "records": [
                        _record_to_dict(r) for r in entry.session.records
                    ],
                }
                for key, entry in self._open.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a ``state_dict()`` snapshot (replaces current state)."""
        watermark = state.get("watermark")
        self.watermark = (
            float("-inf") if watermark is None else float(watermark)
        )
        self.evictions = int(state.get("evictions", 0))
        self.peak_open = int(state.get("peak_open", 0))
        self._open = OrderedDict()
        for item in state.get("open", ()):
            key = tuple(item["key"])
            session = Session(
                session_id=item["session_id"],
                app_id=item.get("app_id", ""),
            )
            for rec in item.get("records", ()):
                session.append(_record_from_dict(rec))
            self._open[key] = _Open(
                session=session,
                last_seen=float(item["last_seen"]),
                matches=None,
            )
        self._low = float("inf")
        for entry in self._open.values():
            if entry.last_seen < self._low:
                self._low = entry.last_seen


def _record_to_dict(record: LogRecord) -> dict:
    """Checkpoint form of a record.

    Ground truth (simulator-only annotations) is intentionally dropped:
    detection never consults it, and it does not survive real restarts
    either.
    """
    data = {
        "timestamp": record.timestamp,
        "level": record.level,
        "source": record.source,
        "message": record.message,
    }
    if record.session_id:
        data["session_id"] = record.session_id
    if record.app_id:
        data["app_id"] = record.app_id
    if record.raw != record.message:
        data["raw"] = record.raw
    if record.meta:
        data["meta"] = record.meta
    return data


def _record_from_dict(data: dict) -> LogRecord:
    return LogRecord(
        timestamp=float(data["timestamp"]),
        level=data.get("level", "INFO"),
        source=data.get("source", ""),
        message=data["message"],
        session_id=data.get("session_id", ""),
        app_id=data.get("app_id", ""),
        raw=data.get("raw", ""),
        meta=dict(data.get("meta", {})),
    )
