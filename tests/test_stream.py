"""Tests for the online streaming runtime (``repro.stream``).

Covers batch-vs-stream report parity on seeded simulator logs,
out-of-order timestamps within a session, idle-timeout vs. end-marker
closure, LRU eviction under the session cap, and the checkpoint/resume
round-trip — plus the file-follower source, the ``split_sessions``
default-bucket regression, and the observe-time matches the tracker
carries to session close (each record matched once).  The tracker's
one-pass end-marker search and bounded idle scan, and the follower's
tell-free line loop, are checked against the full-scan and readline
references kept here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IntelLog, split_sessions
from repro.parsing.records import LogRecord, Session, session_bucket
from repro.simulators import WorkloadGenerator
from repro.stream import (
    FileFollowSource,
    IterableSource,
    ListSink,
    SessionTracker,
    StreamRuntime,
    TrackerConfig,
)
from repro.stream.resilience import ListQuarantine
from repro.stream.tracker import (
    DEFAULT_END_MARKERS,
    _Open,
    end_marker_search,
)

#: Tracker settings that never close early — for exact-parity tests.
#: (End markers stay off: in an arbitrarily reordered stream a marker
#: can arrive mid-session and legitimately split it; the markers get
#: their own parity test on time-ordered input.)
UNBOUNDED = dict(
    idle_timeout=1e12, max_open_sessions=10**9, end_markers=(),
)


def record(ts, message, sid="", app=""):
    return LogRecord(timestamp=float(ts), level="INFO", source="T",
                     message=message, session_id=sid, app_id=app)


@pytest.fixture(scope="module")
def detection_records(spark_model):
    """Seeded detection workload: three Spark jobs, time-interleaved."""
    gen = WorkloadGenerator(seed=77)
    jobs = gen.run_batch("spark", 3)
    records = [r for job in jobs for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def run_stream(model, records, **tracker_kwargs):
    sink = ListSink()
    runtime = StreamRuntime(
        model, IterableSource(records), sink=sink,
        tracker=TrackerConfig(**tracker_kwargs),
    )
    stats = runtime.run(once=True)
    return sink, stats


def reports_by_session(reports):
    return {r.session_id: r.to_dict() for r in reports}


class TestBatchParity:
    def test_stream_equals_batch_reports(self, spark_model,
                                         detection_records):
        batch = spark_model.detect_job(split_sessions(detection_records))
        sink, stats = run_stream(spark_model, detection_records,
                                 **UNBOUNDED)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )
        assert stats.reports == len(batch.sessions)

    def test_parity_with_default_end_markers(self, spark_model,
                                             detection_records):
        """Built-in end markers must only fire on true final messages,
        so they close sessions early without ever splitting one."""
        batch = spark_model.detect_job(split_sessions(detection_records))
        sink, stats = run_stream(spark_model, detection_records,
                                 idle_timeout=1e12)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )
        assert stats.closed_by_reason.get("end_marker", 0) > 0

    def test_out_of_order_timestamps_within_session(self, spark_model,
                                                    detection_records):
        """Records arriving out of order still yield batch-identical
        reports: sessions are time-sorted at close, exactly like
        ``split_sessions`` sorts its buckets."""
        rng = np.random.default_rng(5)
        shuffled = list(detection_records)
        rng.shuffle(shuffled)
        batch = spark_model.detect_job(split_sessions(shuffled))
        sink, _ = run_stream(spark_model, shuffled, **UNBOUNDED)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )


class TestSessionTracker:
    def test_end_marker_closes_immediately(self):
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=1e9, end_markers=(r"session over",),
        ))
        assert tracker.observe(record(1.0, "working", sid="a")) == []
        closed = tracker.observe(record(2.0, "session over", sid="a"))
        assert [c.reason for c in closed] == ["end_marker"]
        assert closed[0].session.session_id == "a"
        assert len(closed[0].session) == 2
        assert tracker.open_count == 0

    def test_idle_timeout_closes_in_event_time(self):
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=10.0, end_markers=(),
        ))
        tracker.observe(record(0.0, "m1", sid="a"))
        tracker.observe(record(5.0, "m1", sid="b"))
        # Watermark jumps far past a's last activity; b stays fresh.
        closed = tracker.observe(record(100.0, "m2", sid="b"))
        assert [c.session.session_id for c in closed] == ["a"]
        assert [c.reason for c in closed] == ["idle"]
        assert tracker.open_count == 1

    def test_idle_scan_handles_lru_order_mismatch(self):
        """A session can be LRU-recent but event-time stale (late replay
        of an old record); the idle scan must still find older entries
        behind it."""
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=10.0, end_markers=(),
        ))
        tracker.observe(record(100.0, "new", sid="fresh"))
        # "stale" is most-recently-active in LRU terms but already
        # beyond the event-time horizon; a front-of-LRU-only scan would
        # miss it behind the fresh session.
        closed = tracker.observe(record(1.0, "old straggler", sid="stale"))
        assert [c.session.session_id for c in closed] == ["stale"]
        assert [c.reason for c in closed] == ["idle"]
        assert tracker.open_count == 1

    def test_eviction_keeps_open_sessions_under_cap(self):
        cap = 5
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=1e9, max_open_sessions=cap, end_markers=(),
        ))
        closed = []
        for i in range(50):
            closed += tracker.observe(
                record(float(i), "m", sid=f"s{i:02d}")
            )
        assert tracker.peak_open <= cap
        assert tracker.open_count == cap
        assert tracker.evictions == 45
        assert all(c.reason == "evicted" for c in closed)
        # Least-recently-active evicted first.
        assert closed[0].session.session_id == "s00"

    def test_sessions_sorted_at_close(self):
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        tracker.observe(record(3.0, "c", sid="a"))
        tracker.observe(record(1.0, "a", sid="a"))
        tracker.observe(record(2.0, "b", sid="a"))
        (closed,) = tracker.flush()
        assert [r.message for r in closed.session] == ["a", "b", "c"]

    def test_state_roundtrip(self):
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        tracker.observe(record(1.0, "x", sid="a", app="app1"))
        tracker.observe(record(2.0, "y", sid="b"))
        restored = SessionTracker(TrackerConfig(end_markers=()))
        restored.load_state(tracker.state_dict())
        assert restored.open_count == 2
        assert restored.watermark == tracker.watermark
        a, b = (c.session for c in restored.flush())
        assert (a.session_id, a.app_id) == ("a", "app1")
        assert [r.message for r in b] == ["y"]


class TestBoundedMemory:
    def test_peak_sessions_bounded_under_10x_load(self, spark_model,
                                                  detection_records):
        """Acceptance: with 10x more containers than the cap, the
        runtime's peak tracked-session count stays under the cap."""
        n_sessions = len(split_sessions(detection_records))
        cap = max(1, n_sessions // 10)
        sink, stats = run_stream(
            spark_model, detection_records,
            idle_timeout=1e12, max_open_sessions=cap, end_markers=(),
        )
        assert n_sessions >= 10 * cap
        assert stats.peak_open_sessions <= cap
        assert stats.evictions > 0
        # Every session still gets at least one report (evicted slices
        # re-open), and every record is accounted for.
        assert sum(
            r.message_count for r in sink.reports
        ) == len(detection_records)


class TestCheckpointResume:
    def test_pause_resume_roundtrip(self, spark_model, detection_records,
                                    tmp_path):
        ckpt = tmp_path / "model.stream-ckpt.json"
        batch = spark_model.detect_job(split_sessions(detection_records))

        sink1 = ListSink()
        first = StreamRuntime(
            spark_model, IterableSource(detection_records), sink=sink1,
            tracker=TrackerConfig(**UNBOUNDED), checkpoint_path=ckpt,
        )
        assert not first.resumed
        half = len(detection_records) // 2
        first.run(once=True, max_records=half)
        assert first.stats.records == half
        assert first.tracker.open_count > 0  # paused mid-job, not flushed

        # A brand-new process: fresh runtime over the same input file.
        sink2 = ListSink()
        second = StreamRuntime(
            spark_model, IterableSource(detection_records), sink=sink2,
            tracker=TrackerConfig(**UNBOUNDED), checkpoint_path=ckpt,
        )
        assert second.resumed
        stats = second.run(once=True)

        # No record replayed, no report re-emitted, exact batch parity.
        assert stats.records == len(detection_records)
        combined = sink1.reports + sink2.reports
        assert len(combined) == len(batch.sessions)
        assert reports_by_session(combined) == reports_by_session(
            batch.sessions
        )

    def test_resume_without_checkpoint_file_starts_fresh(
        self, spark_model, detection_records, tmp_path
    ):
        runtime = StreamRuntime(
            spark_model, IterableSource(detection_records),
            checkpoint_path=tmp_path / "none.json",
        )
        assert not runtime.resumed


class TestLiveAlerts:
    def test_unexpected_message_alerts_immediately(self, spark_model,
                                                   detection_records):
        alerts = []
        novel = record(
            detection_records[-1].timestamp + 1.0,
            "flux capacitor desynchronized beyond repair",
            sid=detection_records[-1].session_id,
        )
        runtime = StreamRuntime(
            spark_model, IterableSource(detection_records + [novel]),
            tracker=TrackerConfig(**UNBOUNDED),
            on_alert=alerts.append,
        )
        stats = runtime.run(once=True)
        assert stats.live_alerts == len(alerts) == 1
        assert alerts[0].kind == "unexpected_message"
        assert "flux capacitor" in alerts[0].message
        # The authoritative anomaly also lands in the session report.
        assert stats.anomalies_by_kind.get("unexpected_message", 0) >= 1


class TestFileFollowSource:
    HEADER = "2019-06-22 10:15:{s:02d},000 INFO [t] org.x.Worker: {msg}"

    def test_follow_parses_appends_and_attributes_sessions(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(
            self.HEADER.format(s=1, msg="start container_e01_0001") + "\n"
        )
        source = FileFollowSource(path, formatter="hadoop")
        assert source.poll(10) == []  # record held back for continuations
        with path.open("a") as fp:
            fp.write(
                "  at java.lang.Thread.run(Thread.java:748)\n"
                + self.HEADER.format(s=2, msg="done container_e01_0001")
                + "\n"
            )
        (first,) = source.poll(10)
        assert first.session_id == "container_e01_0001"
        assert "Thread.run" in first.message  # continuation folded in
        (second,) = source.flush_pending()
        assert second.message == "done container_e01_0001"

    def test_partial_lines_wait_for_newline(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(self.HEADER.format(s=1, msg="one") + "\n")
        source = FileFollowSource(path, formatter="hadoop")
        source.poll(10)
        with path.open("a") as fp:
            fp.write(self.HEADER.format(s=2, msg="tw"))  # no newline yet
        assert source.poll(10) == []
        assert source.flush_pending()[0].message == "one"
        with path.open("a") as fp:
            fp.write("o\n" + self.HEADER.format(s=3, msg="three") + "\n")
        (two,) = source.poll(10)
        assert two.message == "two"

    def test_position_seek_roundtrip(self, tmp_path):
        path = tmp_path / "app.log"
        lines = [self.HEADER.format(s=i, msg=f"m{i}") for i in range(5)]
        path.write_text("\n".join(lines) + "\n")
        source = FileFollowSource(path, formatter="hadoop")
        got = source.poll(2)
        position = source.position()
        resumed = FileFollowSource(path, formatter="hadoop")
        resumed.seek(position)
        rest = resumed.poll(10) + resumed.flush_pending()
        assert [r.message for r in got + rest] == [
            f"m{i}" for i in range(5)
        ]


class TestSplitSessionsDefaultBucket:
    def test_default_bucket_keyed_by_app(self):
        """Regression: empty session_ids from different apps must not be
        merged into one ``<default>`` session."""
        records = [
            record(1.0, "a1", app="app_1"),
            record(2.0, "b1", app="app_2"),
            record(3.0, "a2", app="app_1"),
            record(4.0, "c1"),  # no app either
        ]
        sessions = {s.session_id: s for s in split_sessions(records)}
        assert set(sessions) == {
            "<default:app_1>", "<default:app_2>", "<default>",
        }
        assert sessions["<default:app_1>"].messages() == ["a1", "a2"]
        assert sessions["<default:app_1>"].app_id == "app_1"
        assert sessions["<default>"].messages() == ["c1"]

    def test_tracker_uses_same_bucketing(self):
        records = [
            record(1.0, "a1", app="app_1"),
            record(2.0, "b1", app="app_2"),
        ]
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        for r in records:
            assert tracker.observe(r) == []
        stream_ids = sorted(
            c.session.session_id for c in tracker.flush()
        )
        batch_ids = sorted(
            s.session_id for s in split_sessions(records)
        )
        assert stream_ids == batch_ids

    def test_explicit_session_ids_unchanged(self):
        records = [
            record(1.0, "x", sid="c1", app="app_1"),
            record(2.0, "y", sid="c1", app="app_2"),
        ]
        (session,) = split_sessions(records)
        assert session.session_id == "c1"
        assert session_bucket(records[0]) == (("", "c1"), "c1")


class TestIdleStats:
    class _IdleSource:
        """Always-empty source that exhausts after a few sleeps."""

        def __init__(self):
            self.sleeps = 0
            self._done = False

        def poll(self, max_records):
            return []

        def exhausted(self):
            return self._done

        def backlog(self):
            return 0

        def position(self):
            return {"kind": "idle"}

        def seek(self, position):
            pass

    def test_idle_polls_do_not_spam_stats(self, spark_model):
        source = self._IdleSource()

        def fake_sleep(_interval):
            source.sleeps += 1
            if source.sleeps >= 5:
                source._done = True

        emissions = []
        runtime = StreamRuntime(
            spark_model, source,
            stats_callback=lambda stats: emissions.append(stats.records),
            sleep=fake_sleep,
        )
        runtime.run()
        # Five idle polls produce one quiet-stream emission (plus the
        # unconditional end-of-run one) — not one line per poll.
        assert source.sleeps == 5
        assert len(emissions) == 2


class TestModelAccessor:
    def test_untrained_detector_raises(self):
        from repro import NotTrainedError

        with pytest.raises(NotTrainedError):
            IntelLog().detector()

    def test_runtime_accepts_raw_detector(self, spark_model,
                                          detection_records):
        sink = ListSink()
        runtime = StreamRuntime(
            spark_model.detector(),
            IterableSource(detection_records[:50]),
            sink=sink, tracker=TrackerConfig(**UNBOUNDED),
        )
        runtime.run(once=True)
        assert sink.reports


def report_bytes(reports) -> dict[str, bytes]:
    return {
        r.session_id: json.dumps(r.to_dict(), sort_keys=True).encode()
        for r in reports
    }


#: A checkpoint written by the previous ``StreamCheckpoint.save``
#: (insertion-order keys, ``checksum`` last): the Spark stream of
#: ``WorkloadGenerator(seed=PARENT_CKPT_SEED).run_batch("spark", 1)``,
#: time-sorted, paused after ``PARENT_CKPT_PAUSE`` records under the
#: ``UNBOUNDED`` tracker with the default end markers.
PARENT_CKPT = Path(__file__).parent / "fixtures" / "stream_ckpt_v2_spark.json"
PARENT_CKPT_SEED = 41
PARENT_CKPT_PAUSE = 120


def single_job_records(seed: int) -> list[LogRecord]:
    records = list(WorkloadGenerator(seed=seed).run_batch("spark", 1)[0]
                   .records)
    records.sort(key=lambda r: r.timestamp)
    return records


class _FakeMatch:
    """Stand-in match: the tracker never looks inside one."""

    def __init__(self, tag: str) -> None:
        self.tag = tag


class TestCarriedMatches:
    """Observe-time matches ride with their records to session close."""

    def test_matches_follow_records_through_the_close_sort(self):
        tracker = SessionTracker(TrackerConfig(**UNBOUNDED))
        arrivals = [(3, "c"), (1, "a"), (3, "d"), (2, "b"), (1, "a2")]
        for ts, tag in arrivals:
            tracker.observe(
                record(ts, f"msg {tag}", sid="s"),
                None if tag == "b" else _FakeMatch(tag),
            )
        [closed] = tracker.flush()
        # Stable by timestamp: ties keep arrival order, exactly as
        # Session.sort() orders the records.
        assert [r.message for r in closed.session.records] == [
            "msg a", "msg a2", "msg b", "msg c", "msg d",
        ]
        assert [m and m.tag for m in closed.matches] == [
            "a", "a2", None, "c", "d",
        ]

    def test_a_record_without_a_match_drops_the_sessions_matches(self):
        tracker = SessionTracker(TrackerConfig(**UNBOUNDED))
        tracker.observe(record(1, "one", sid="s"), _FakeMatch("one"))
        tracker.observe(record(2, "two", sid="s"))
        tracker.observe(record(3, "three", sid="s"), _FakeMatch("three"))
        tracker.observe(record(1, "x", sid="t"), _FakeMatch("x"))
        closed = {c.session.session_id: c for c in tracker.flush()}
        assert closed["s"].matches is None
        assert [m.tag for m in closed["t"].matches] == ["x"]

    def test_drop_matches_and_restore_carry_none(self):
        tracker = SessionTracker(TrackerConfig(**UNBOUNDED))
        tracker.observe(record(1, "one", sid="s"), _FakeMatch("one"))
        restored = SessionTracker(TrackerConfig(**UNBOUNDED))
        restored.load_state(tracker.state_dict())
        tracker.drop_matches()
        tracker.observe(record(2, "two", sid="s"), _FakeMatch("two"))
        assert tracker.flush()[0].matches is None
        [closed] = restored.flush()
        assert closed.matches is None
        assert [r.message for r in closed.session.records] == ["one"]

    def test_detect_session_with_matches_equals_matching_it(
        self, spark_model, detection_records
    ):
        detector = spark_model.detector()
        for session in split_sessions(detection_records)[:5]:
            matches = detector.spell.match_batch(
                [r.message for r in session.records]
            )
            assert detector.detect_session(session, matches).to_dict() == \
                detector.detect_session(session).to_dict()
        with pytest.raises(ValueError, match="matches for"):
            detector.detect_session(session, matches[:-1])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interleaved_stream_equals_batch(
        self, spark_model, detection_records, data
    ):
        """Any interleaving of sessions, with equal and out-of-order
        timestamps, unknown messages and small poll batches, reports
        exactly what batch ``detect_job`` reports."""
        pool = split_sessions(detection_records)
        picks = data.draw(
            st.lists(st.sampled_from(range(len(pool))), min_size=1,
                     max_size=4, unique=True),
            label="sessions",
        )
        stream: list[LogRecord] = []
        for index in picks:
            source = pool[index].records
            length = data.draw(st.integers(1, min(40, len(source))))
            for rec in source[:length]:
                # A coarse clock makes ties common.
                tick = data.draw(st.integers(0, 12))
                stream.append(dataclasses.replace(rec, timestamp=float(tick)))
            unknown = data.draw(st.integers(0, 2))
            stream.extend(
                dataclasses.replace(
                    source[0], timestamp=float(k),
                    message=f"quantum flux inverter {k} misaligned",
                )
                for k in range(unknown)
            )
        stream = data.draw(st.permutations(stream), label="arrival order")
        poll_batch = data.draw(st.integers(1, 7), label="poll_batch")

        sink = ListSink()
        runtime = StreamRuntime(
            spark_model, IterableSource(stream), sink=sink,
            tracker=TrackerConfig(**UNBOUNDED), poll_batch=poll_batch,
        )
        runtime.run(once=True)
        batch = spark_model.detect_job(split_sessions(stream))
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )

    def test_each_record_is_matched_once(self, spark_model,
                                         detection_records):
        runtime = StreamRuntime(
            spark_model, IterableSource(detection_records),
            tracker=TrackerConfig(**UNBOUNDED), poll_batch=37,
        )
        stats = runtime.run(once=True)
        hits = runtime.registry.get("spell_index_hits_total")
        matched = sum(value for _, value in hits.samples())
        assert stats.reports > 0
        assert matched == stats.records == len(detection_records)

    @pytest.mark.parametrize("pause", [1, 150, 401])
    def test_restored_sessions_are_byte_identical_to_uninterrupted_run(
        self, spark_model, detection_records, tmp_path, pause
    ):
        """Sessions restored from a checkpoint carry no matches and are
        matched whole at close — with the same bytes as a run that was
        never interrupted."""
        tracker = dict(idle_timeout=1e12, max_open_sessions=10**9)
        whole = ListSink()
        StreamRuntime(
            spark_model, IterableSource(detection_records), sink=whole,
            tracker=TrackerConfig(**tracker),
        ).run(once=True)

        ckpt = tmp_path / "ckpt.json"
        first_sink = ListSink()
        first = StreamRuntime(
            spark_model, IterableSource(detection_records),
            sink=first_sink, tracker=TrackerConfig(**tracker),
            checkpoint_path=ckpt,
        )
        first.run(once=True, max_records=pause)
        restored = {
            item["session_id"]
            for item in first.tracker.state_dict()["open"]
        }
        assert restored
        second_sink = ListSink()
        second = StreamRuntime(
            spark_model, IterableSource(detection_records),
            sink=second_sink, tracker=TrackerConfig(**tracker),
            checkpoint_path=ckpt,
        )
        assert second.resumed
        second.run(once=True)

        expected = report_bytes(whole.reports)
        resumed = report_bytes(second_sink.reports)
        assert restored <= set(resumed)
        assert report_bytes(first_sink.reports + second_sink.reports) == \
            expected

    def test_checkpoint_written_by_the_previous_save_resumes(
        self, spark_model, tmp_path
    ):
        records = single_job_records(PARENT_CKPT_SEED)
        tracker = dict(idle_timeout=1e12, max_open_sessions=10**9)
        whole = ListSink()
        StreamRuntime(
            spark_model, IterableSource(records), sink=whole,
            tracker=TrackerConfig(**tracker),
        ).run(once=True)
        # What this code emits before the same pause point.
        before = ListSink()
        StreamRuntime(
            spark_model, IterableSource(records), sink=before,
            tracker=TrackerConfig(**tracker),
            checkpoint_path=tmp_path / "fresh.json",
        ).run(once=True, max_records=PARENT_CKPT_PAUSE)

        ckpt = tmp_path / "parent.json"
        shutil.copy(PARENT_CKPT, ckpt)
        sink = ListSink()
        runtime = StreamRuntime(
            spark_model, IterableSource(records), sink=sink,
            tracker=TrackerConfig(**tracker), checkpoint_path=ckpt,
        )
        assert runtime.resumed and runtime.resume_origin == "checkpoint"
        stats = runtime.run(once=True)
        assert stats.records == len(records)
        assert sink.reports
        assert report_bytes(before.reports + sink.reports) == \
            report_bytes(whole.reports)


# -- one-pass tracker ---------------------------------------------------------

#: End markers for the alternation property, hostile ones included:
#: capturing groups with backreferences and a conditional, a duplicated
#: group name, inline global flags (one of them a no-op), anchors,
#: lookarounds, and the empty pattern, which matches every message.
MARKER_POOL = (
    r"shutdown", r"Deleting directory", r"^start", r"done$", r"\d{3}",
    r"(?=ab)a", r"(?<!x)yz", r"a|b", r"[xyz]+q", r"", r"a\nb",
    r"(?i)SHUTDOWN", r"(?u)ok", r"(?s)a.b", r"(?m)^b",
    r"(?P<n>ab)(?P=n)", r"(?P<n>yz)", r"(a)\1", r"(x)?(?(1)y|z)q",
)
MESSAGES = st.lists(
    st.sampled_from([
        "shutdown", "SHUTDOWN", "ShutDown", "Deleting directory /tmp",
        "start", "done", "abab", "yzyz", "xyz", "a\nb", "123", "ok", "zq",
        "xq", "xyq", "aa", "a", "b", "x", "y", "q", " ", "\n",
    ]),
    max_size=6,
).map("".join)


class FullScanTracker(SessionTracker):
    """The tracker before the one-pass observe: every record searches
    each end marker on its own and scans every open session."""

    def observe(self, record, match=None):
        closed = []
        key, sid = session_bucket(record)
        entry = self._open.get(key)
        if entry is None:
            entry = _Open(
                session=Session(session_id=sid, app_id=record.app_id),
                last_seen=record.timestamp,
                matches=None,
            )
            self._open[key] = entry
        entry.session.append(record)
        entry.last_seen = max(entry.last_seen, record.timestamp)
        self._open.move_to_end(key)
        self.watermark = max(self.watermark, record.timestamp)
        if any(re.search(p, record.message)
               for p in self.config.end_markers):
            del self._open[key]
            closed.append(self._close(entry, "end_marker"))
        horizon = self.watermark - self.config.idle_timeout
        for key in [k for k, e in self._open.items()
                    if e.last_seen <= horizon]:
            closed.append(self._close(self._open.pop(key), "idle"))
        while len(self._open) > self.config.max_open_sessions:
            _, entry = self._open.popitem(last=False)
            self.evictions += 1
            closed.append(self._close(entry, "evicted"))
        self.peak_open = max(self.peak_open, len(self._open))
        return closed


def closures(closed):
    return [
        (c.reason, c.session.session_id, c.session.app_id,
         [(r.timestamp, r.message) for r in c.session.records])
        for c in closed
    ]


#: One tracker operation: observe a record (session slot, event time,
#: end marker or not), force-evict LRU sessions, or checkpoint through
#: JSON into a fresh tracker.
TRACKER_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"), st.integers(0, 5), st.integers(0, 40),
            st.booleans(),
        ),
        st.tuples(st.just("evict"), st.integers(0, 2)),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


class TestOnePassTracker:
    @given(markers=st.lists(st.sampled_from(MARKER_POOL), max_size=5),
           message=MESSAGES)
    # Sets an unguarded alternation gets wrong: a backreference or a
    # conditional whose group number shifts, a duplicated group name,
    # inline global flags, and the empty marker set.
    @example(markers=[r"(?P<n>yz)", r"(a)\1"], message="aa")
    @example(markers=[r"(a)\1", r"(x)?(?(1)y|z)q"], message="xyq")
    @example(markers=[r"(?P<n>ab)(?P=n)", r"(?P<n>yz)"], message="yz")
    @example(markers=[r"shutdown", r"(?i)SHUTDOWN"], message="ShutDown")
    @example(markers=[r"(?u)ok"], message="ok")
    @example(markers=[], message="")
    @settings(max_examples=300, deadline=None)
    def test_alternation_agrees_with_searching_each_marker(
        self, markers, message
    ):
        search = end_marker_search(tuple(markers))
        assert bool(search(message)) == any(
            re.search(p, message) for p in markers
        )

    def test_default_markers_are_one_pattern(self):
        search = end_marker_search(DEFAULT_END_MARKERS)
        assert isinstance(getattr(search, "__self__", None), re.Pattern)
        assert search("INFO ShutdownHookManager: Deleting directory /x")
        assert not search("Driver commanded a shutdown")

    def test_in_order_stream_never_scans_for_idle_sessions(self):
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=1e6, end_markers=(),
        ))
        scans = []
        real = tracker._expire_idle
        tracker._expire_idle = lambda *a: scans.append(a) or real(*a)
        for i in range(500):
            tracker.observe(record(float(i), "m", sid=f"s{i % 40}"))
        assert scans == []
        assert tracker.open_count == 40

    @given(
        ops=TRACKER_OPS,
        idle_timeout=st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 1e9]),
        cap=st.integers(1, 4),
    )
    # Restored sessions must still expire while only they get records.
    @example(
        ops=[("observe", 0, 0, False), ("observe", 1, 0, False),
             ("restore",), ("observe", 1, 10, False)],
        idle_timeout=5.0, cap=4,
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_idle_expiry_equals_the_full_scan(
        self, ops, idle_timeout, cap
    ):
        config = TrackerConfig(
            idle_timeout=idle_timeout, max_open_sessions=cap,
            end_markers=(r"the end",),
        )
        trackers = [SessionTracker(config), FullScanTracker(config)]
        logs = [[], []]
        for op in ops:
            for i, tracker in enumerate(trackers):
                if op[0] == "observe":
                    _, slot, ts, end = op
                    sid, app = (f"c{slot}", "") if slot < 4 else (
                        "", f"app{slot}"
                    )
                    logs[i] += closures(tracker.observe(record(
                        ts, "the end" if end else f"m{ts}", sid, app,
                    )))
                elif op[0] == "evict":
                    logs[i] += closures(tracker.evict_lru(op[1]))
                else:
                    state = json.loads(json.dumps(tracker.state_dict()))
                    trackers[i] = type(tracker)(config)
                    trackers[i].load_state(state)
        for i, tracker in enumerate(trackers):
            logs[i] += closures(tracker.flush())
        assert logs[0] == logs[1]
        new, ref = trackers
        assert (new.evictions, new.peak_open, new.watermark) == (
            ref.evictions, ref.peak_open, ref.watermark
        )


# -- tell-free follower -------------------------------------------------------


class ReadlineFollowSource(FileFollowSource):
    """The follower's poll as a readline loop with two ``tell()`` calls
    per line: the reference the tell-free loop must equal."""

    def poll(self, max_records):
        out = []
        try:
            fp = open(self.path, "rb")
        except FileNotFoundError:
            return out
        with fp:
            self._detect_regression(fp, out)
            fp.seek(self._offset)
            while len(out) < max_records:
                line_start = fp.tell()
                raw = fp.readline()
                if not raw.endswith(b"\n"):
                    break
                self._offset = fp.tell()
                self._consume_line(raw, line_start, out)
        return out


_HEADER = "2019-06-22 10:15:{s:02d},000 INFO [t] org.x.Worker: {msg}"
#: Line kinds for the follower files: header lines for two containers,
#: stack-trace continuations, blank lines, NUL bytes, invalid UTF-8, a
#: literal U+FFFD, text that matches no format, and non-ASCII text.
LINES = st.sampled_from([
    _HEADER.format(s=1, msg="start container_e01_0001").encode(),
    _HEADER.format(s=2, msg="work container_e01_0002").encode(),
    _HEADER.format(s=3, msg="Übergabe 完成 container_e01_0001").encode(),
    b"  at java.lang.Thread.run(Thread.java:748)",
    b"",
    b"   ",
    b"bin\x00ary",
    b"bad \xff\xfe bytes",
    "replacement \ufffd char".encode(),
    b"no format here",
])
CHUNKS = st.tuples(
    st.lists(LINES, max_size=8),
    st.one_of(st.just(b""), LINES),  # an unterminated trailing line
).map(lambda c: b"".join(line + b"\n" for line in c[0]) + c[1])
FOLLOW_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), CHUNKS),
        st.tuples(st.just("truncate"), CHUNKS),
        st.tuples(st.just("rotate"), CHUNKS),
        st.tuples(st.just("poll"), st.integers(1, 6)),
        st.tuples(st.just("flush")),
    ),
    max_size=25,
)


def follow_log(items):
    """Records as field tuples; positions stay dicts."""
    return [
        x if isinstance(x, dict) else dataclasses.astuple(x) for x in items
    ]


class TestTellFreeFollower:
    @given(ops=FOLLOW_OPS)
    # A rotation releases the held-back record; with ``max_records=1``
    # that fills the poll, which must then read no line of the new file.
    @example(ops=[
        ("append", _HEADER.format(s=1, msg="a").encode() + b"\n"),
        ("poll", 5),
        ("rotate", _HEADER.format(s=2, msg="b").encode() + b"\n"),
        ("poll", 1),
        ("rotate", b""),
        ("poll", 5),
    ])
    @settings(max_examples=150, deadline=None)
    def test_poll_equals_the_readline_tell_loop(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "app.log"
            path.write_bytes(b"")
            sources = [
                FileFollowSource(path, formatter="hadoop",
                                 quarantine=ListQuarantine()),
                ReadlineFollowSource(path, formatter="hadoop",
                                     quarantine=ListQuarantine()),
            ]
            got = [[], []]
            for op in ops:
                if op[0] == "append":
                    with path.open("ab") as fp:
                        fp.write(op[1])
                elif op[0] == "truncate":
                    path.write_bytes(op[1])
                elif op[0] == "rotate":
                    fresh = Path(tmp) / "app.log.new"
                    fresh.write_bytes(op[1])
                    os.replace(fresh, path)
                for i, source in enumerate(sources):
                    if op[0] == "poll":
                        got[i] += source.poll(op[1])
                    elif op[0] == "flush":
                        got[i] += source.flush_pending()
                    got[i].append(source.position())
            for i, source in enumerate(sources):
                got[i] += source.finalize()
                got[i].append(source.position())
            new, ref = sources
            assert follow_log(got[0]) == follow_log(got[1])
            assert new.quarantine.entries == ref.quarantine.entries
            assert (new.rotations, new.truncations) == (
                ref.rotations, ref.truncations
            )
