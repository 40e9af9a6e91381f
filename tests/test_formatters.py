"""Tests for the log formatters (paper §5) and session splitting."""

from repro.parsing.formatters import (
    GenericFormatter,
    HadoopFormatter,
    SparkFormatter,
    default_registry,
    format_lines,
)
from repro.parsing.records import LogRecord, Session, split_sessions


HADOOP_LINE = (
    "2019-06-22 10:15:32,123 INFO [fetcher#1] "
    "org.apache.hadoop.mapreduce.task.reduce.Fetcher: "
    "fetcher#1 about to shuffle output of map attempt_01"
)
SPARK_LINE = (
    "19/06/22 10:15:32 INFO BlockManager: Registering BlockManager"
)


class TestHadoopFormatter:
    def test_parses_fields(self):
        record = HadoopFormatter().try_parse(HADOOP_LINE)
        assert record is not None
        assert record.level == "INFO"
        assert record.source == "Fetcher"
        assert record.message.startswith("fetcher#1 about")
        assert record.meta["thread"] == "fetcher#1"

    def test_milliseconds_in_timestamp(self):
        record = HadoopFormatter().try_parse(HADOOP_LINE)
        assert record.timestamp % 1 > 0.1

    def test_rejects_other_formats(self):
        assert HadoopFormatter().try_parse(SPARK_LINE) is None

    def test_continuation_lines_folded(self):
        lines = [
            HADOOP_LINE,
            "java.io.IOException: connection reset",
            "\tat org.apache.hadoop.SomeClass.method(SomeClass.java:1)",
        ]
        records = list(HadoopFormatter().parse_lines(lines))
        assert len(records) == 1
        assert "IOException" in records[0].message


    def test_impossible_date_is_not_a_record(self):
        for stamp in ("2019-02-30 10:15:32", "2019-13-01 10:15:32",
                      "2019-06-22 24:15:32"):
            line = HADOOP_LINE.replace("2019-06-22 10:15:32", stamp)
            assert HadoopFormatter().try_parse(line) is None

    def test_impossible_date_folds_as_continuation(self):
        bad = HADOOP_LINE.replace("2019-06-22", "2019-02-30")
        records = list(
            HadoopFormatter().parse_lines([HADOOP_LINE, bad, HADOOP_LINE])
        )
        assert len(records) == 2
        assert records[0].message.endswith("\n" + bad)


class TestSparkFormatter:
    def test_impossible_date_is_not_a_record(self):
        for stamp in ("19/02/30", "19/13/01"):
            line = SPARK_LINE.replace("19/06/22", stamp)
            assert SparkFormatter().try_parse(line) is None
        records = list(SparkFormatter().parse_lines(
            [SPARK_LINE, SPARK_LINE.replace("19/06/22", "19/02/30")]
        ))
        assert len(records) == 1
        assert "\n" in records[0].message

    def test_parses_fields(self):
        record = SparkFormatter().try_parse(SPARK_LINE)
        assert record is not None
        assert record.source == "BlockManager"
        assert record.message == "Registering BlockManager"

    def test_rejects_hadoop(self):
        assert SparkFormatter().try_parse(HADOOP_LINE) is None


class TestRegistry:
    def test_known_names(self):
        registry = default_registry()
        for name in ("hadoop", "spark", "tez", "yarn", "generic",
                     "mapreduce"):
            assert name in registry.names()

    def test_unknown_name_raises(self):
        import pytest

        with pytest.raises(KeyError):
            default_registry().get("flink")

    def test_detect_hadoop(self):
        registry = default_registry()
        formatter = registry.detect([HADOOP_LINE] * 3)
        assert formatter.name == "hadoop"

    def test_detect_spark(self):
        registry = default_registry()
        assert registry.detect([SPARK_LINE] * 3).name == "spark"

    def test_detect_fallback_generic(self):
        registry = default_registry()
        assert registry.detect(["free text only"]).name == "generic"

    def test_format_lines_by_name(self):
        records = format_lines([SPARK_LINE], "spark")
        assert len(records) == 1


class TestGenericFormatter:
    def test_counts_as_timestamps(self):
        records = list(
            GenericFormatter().parse_lines(["a", "b", "c"])
        )
        assert [r.timestamp for r in records] == [1.0, 2.0, 3.0]

    def test_blank_lines_skipped(self):
        records = list(GenericFormatter().parse_lines(["a", "", "b"]))
        assert len(records) == 2


class TestSessionSplitting:
    def test_split_by_session_id(self):
        records = [
            LogRecord(timestamp=2.0, level="I", source="s", message="b",
                      session_id="c2"),
            LogRecord(timestamp=1.0, level="I", source="s", message="a",
                      session_id="c1"),
            LogRecord(timestamp=3.0, level="I", source="s", message="c",
                      session_id="c1"),
        ]
        sessions = split_sessions(records)
        assert len(sessions) == 2
        c1 = next(s for s in sessions if s.session_id == "c1")
        assert [r.message for r in c1] == ["a", "c"]

    def test_sessions_ordered_by_start(self):
        records = [
            LogRecord(timestamp=9.0, level="I", source="s", message="x",
                      session_id="late"),
            LogRecord(timestamp=1.0, level="I", source="s", message="y",
                      session_id="early"),
        ]
        sessions = split_sessions(records)
        assert sessions[0].session_id == "early"

    def test_session_properties(self):
        session = Session(session_id="s")
        session.append(LogRecord(
            timestamp=5.0, level="I", source="s", message="m1"
        ))
        session.append(LogRecord(
            timestamp=1.0, level="I", source="s", message="m2"
        ))
        session.sort()
        assert session.start == 1.0
        assert session.end == 5.0
        assert session.messages() == ["m2", "m1"]
        assert len(session) == 2
