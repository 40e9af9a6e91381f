"""Spans around calls into the program's layers, for the traced run only.

The benchmark measures end-to-end numbers untraced.  A separate traced
run wraps the public functions of each layer (see ``install``) with
a span that records its duration and how much of it nested spans
covered; a layer's self time is its duration minus that cover.  Spans
are aggregated per name as they close, which keeps the overhead per
call small; the aggregates are what the benchmark reports.

A call into a layer that is already the innermost open span (a
formatter's ``parse_lines`` calling its own ``try_parse``) is folded
into the outer span rather than opened as a child.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class SpanTotals:
    busy: float = 0.0   # summed duration
    self: float = 0.0   # summed duration minus nested spans' cover
    calls: int = 0


class Recorder:
    """Per-name span aggregates plus named counters.

    Spans nest per thread and are recorded only inside a timed
    ``region()``; outside one, wrapped calls run untimed.  The clock is
    injectable so the self-time arithmetic can be tested without
    sleeping.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, SpanTotals] = {}
        self.counts: dict[str, float] = {}
        #: Summed duration of spans opened with no enclosing span.
        self.top_level = 0.0
        #: Summed wall-clock duration of the timed regions.
        self.region_wall = 0.0
        self.enabled = False
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def region(self):
        """A timed stretch of the workload: spans and counts record."""
        self.enabled = True
        start = self.clock()
        try:
            yield self
        finally:
            self.region_wall += self.clock() - start
            self.enabled = False

    @property
    def coverage(self) -> float:
        """Share of the timed regions covered by top-level spans."""
        return self.top_level / self.region_wall if self.region_wall else 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, float("-inf")):
            self.counts[name] = value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if not self.enabled or (stack and stack[-1][0] == name):
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            totals = self.spans.get(name)
            if totals is None:
                totals = self.spans[name] = SpanTotals()
            totals.busy += duration
            totals.self += duration - frame[1]
            totals.calls += 1
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level += duration

    def wrap(self, name: str, fn, count=None, materialize: bool = False):
        """``fn`` timed as span ``name``.

        ``count(recorder, args, result)`` runs after each call;
        ``materialize`` drains a returned iterator inside the span.
        """
        recorder = self
        target = fn
        if materialize:
            def target(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = recorder.call(name, target, *args, **kwargs)
            if count is not None and recorder.enabled:
                count(recorder, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None,
              materialize: bool = False) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, materialize))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def busy(self, name: str) -> float:
        totals = self.spans.get(name)
        return totals.busy if totals else 0.0

    def self_time(self, name: str) -> float:
        totals = self.spans.get(name)
        return totals.self if totals else 0.0

    def calls(self, name: str) -> int:
        totals = self.spans.get(name)
        return totals.calls if totals else 0


def region(recorder: Recorder | None):
    """``recorder.region()``, or nothing on an untraced run."""
    return recorder.region() if recorder is not None else contextlib.nullcontext()


# -- counters read off call arguments and results ---------------------------

def _one(key):
    def count(rec, args, result):
        rec.add(key)
    return count


def _match_batch(rec, args, result):
    rec.add("spell.match_records", len(args[1]))


def _match_one(rec, args, result):
    rec.add("spell.match_records")


def _detect_batch(rec, args, result):
    rec.add("detection.sessions", len(args[1]))
    rec.add("detection.anomalies", sum(len(r.anomalies) for r in result))


def _detect_session(rec, args, result):
    rec.add("detection.sessions")
    rec.add("detection.anomalies", len(result.anomalies))


def _to_intel(rec, args, result):
    rec.add("extraction.to_intel_calls")


def _poll(rec, args, result):
    rec.add("source.polls")
    if not result:
        rec.add("source.empty_polls")


def _checkpoint(rec, args, result):
    runtime = args[0]
    rec.add("checkpoint.saves")
    path = runtime.checkpoint_path
    if path is not None and os.path.exists(path):
        rec.add("checkpoint.bytes", os.path.getsize(path))


def _cycle(rec, args, result):
    service = args[0]
    rec.add("service.cycles")
    if not result:
        rec.add("service.empty_cycles")
    for tenant_id in service.tenant_ids:
        rec.peak(
            "tenant.queue_depth_max",
            service.tenant(tenant_id).queue.queue_depth,
        )


def install(recorder: Recorder) -> None:
    """Wrap every layer call the per-layer metrics are built from."""
    from repro.core.intellog import IntelLog
    from repro.detection.detector import AnomalyDetector
    from repro.extraction.pipeline import InformationExtractor
    from repro.graph.hwgraph import HWGraphBuilder
    from repro.parsing import records
    from repro.parsing.formatters import Formatter, HadoopFormatter
    from repro.parsing.spell import SpellParser
    from repro.serve.service import DetectionService
    from repro.stream.detector import StreamingDetector
    from repro.stream.runtime import StreamRuntime
    from repro.stream.source import FileFollowSource
    from repro.stream.tracker import SessionTracker

    p = recorder.patch
    p(Formatter, "parse_lines", "formatters", materialize=True)
    p(HadoopFormatter, "try_parse", "formatters",
      count=_one("formatters.lines"))
    p(records, "split_sessions", "records.split")
    p(IntelLog, "train", "core.train")
    p(SpellParser, "consume", "spell.consume",
      count=_one("spell.consume_calls"))
    p(SpellParser, "match", "spell.match", count=_match_one)
    p(SpellParser, "match_batch", "spell.match", count=_match_batch)
    p(InformationExtractor, "build_all", "extraction.build")
    p(InformationExtractor, "to_intel_message", "extraction.to_intel",
      count=_to_intel)
    p(HWGraphBuilder, "train_session", "graph.train_session")
    p(HWGraphBuilder, "build", "graph.build")
    p(AnomalyDetector, "detect_batch", "detection", count=_detect_batch)
    p(AnomalyDetector, "detect_session", "detection",
      count=_detect_session)
    p(FileFollowSource, "poll", "source.poll", count=_poll)
    p(SessionTracker, "observe", "tracker.observe")
    p(StreamingDetector, "observe", "stream_detector.observe")
    p(StreamingDetector, "observe_batch", "stream_detector.observe")
    p(StreamingDetector, "finalize", "stream_detector.finalize")
    p(StreamRuntime, "checkpoint", "checkpoint", count=_checkpoint)
    p(DetectionService, "cycle", "service.cycle", count=_cycle)
    p(DetectionService, "run", "service.run")
    p(DetectionService, "drain", "service.drain")
