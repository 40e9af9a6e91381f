"""Online detection: per-record live alerts + batch-exact session reports.

The paper's detection phase (§4.2) has two halves with different latency
profiles, and the streaming detector splits them accordingly:

* **unexpected log messages** are recognizable the instant a record
  arrives — :meth:`StreamingDetector.observe` matches each record
  against the learned log keys and emits a lightweight
  :class:`LiveAlert` immediately, so operators see novel messages while
  the job is still running;
* **erroneous HW-graph instances** (incomplete subroutines, missing
  critical keys, order violations, missing groups, hierarchy breaks)
  need the whole session — :meth:`StreamingDetector.finalize` runs them
  when the tracker closes a session.

Each record is matched once.  The live pass's matches ride with the
records in the tracker to session close, sorted with them, and
``finalize`` hands them to the batch
:meth:`~repro.detection.detector.AnomalyDetector.detect_session` with
the time-sorted closed session.  Batch, partitioned and stream
detection thus run the same match-then-check code, which makes
stream/batch report parity exact *by construction*.  A session whose
matches were dropped (restored from a checkpoint, or open across a
model swap) is matched whole at close instead.  The full §3 extraction
for unexpected messages runs once, at finalize time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..detection.detector import AnomalyDetector
from ..detection.report import SessionReport
from ..parsing.records import LogRecord
from ..parsing.spell import MatchResult
from .tracker import ClosedSession

__all__ = ["LiveAlert", "StreamingDetector"]


@dataclass(slots=True)
class LiveAlert:
    """Immediate per-record finding, ahead of the session's full report."""

    kind: str
    session_id: str
    app_id: str
    timestamp: float
    message: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "session_id": self.session_id,
            "app_id": self.app_id,
            "timestamp": self.timestamp,
            "message": self.message,
        }


class StreamingDetector:
    """Wraps a trained :class:`AnomalyDetector` for online use."""

    def __init__(self, detector: AnomalyDetector) -> None:
        self.detector = detector

    def observe(self, record: LogRecord) -> LiveAlert | None:
        """Cheap per-record check: is this message's log key known?

        Returns a :class:`LiveAlert` for unexpected messages, ``None``
        for messages the model recognizes.  Purely advisory — the
        authoritative anomaly (with full five-field extraction) appears
        in the session's :meth:`finalize` report.
        """
        if self.detector.spell.match(record.message) is not None:
            return None
        return self._alert(record)

    def observe_batch(
        self, records: Sequence[LogRecord]
    ) -> tuple[list[LiveAlert | None], list[MatchResult | None]]:
        """Batched :meth:`observe`: one ``match_batch`` for the whole
        poll batch (duplicate messages match once), same per-record
        alerts.  The runtime's quantum pumps feed entire source batches
        through here so the match cost amortizes across the batch.

        Returns the alerts and the per-record matches; the runtime
        carries the matches to :meth:`finalize` through the tracker.
        """
        matches = self.detector.spell.match_batch(
            [record.message for record in records]
        )
        alerts = [
            None if match is not None else self._alert(record)
            for record, match in zip(records, matches)
        ]
        return alerts, matches

    @staticmethod
    def _alert(record: LogRecord) -> LiveAlert:
        return LiveAlert(
            kind="unexpected_message",
            session_id=record.session_id,
            app_id=record.app_id,
            timestamp=record.timestamp,
            message=record.message[:200],
        )

    def finalize(self, closed: ClosedSession) -> SessionReport:
        """Full HW-graph-instance checks on a closed session, over the
        matches carried from observe time when it has them."""
        return self.detector.detect_session(closed.session, closed.matches)
