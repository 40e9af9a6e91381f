"""Streaming runtime benchmark: throughput, bounded memory, parity.

Replays simulator-generated Spark and MapReduce logs through the
``repro.stream`` runtime and writes ``BENCH_stream.json``
(``benchmarks/results/``) with, per system:

* ``records_per_s`` — end-to-end rate through source → tracker → live
  check → close-time detection → sink: the median over ``passes``
  replays, each on a fresh runtime, repeated until they add up to at
  least ``MIN_TIMED_S`` seconds (one pass takes only tens of ms);
* ``peak_open_sessions`` — maximum concurrently tracked sessions;
* ``parity`` — whether streaming produced *identical* ``SessionReport``s
  to batch ``detect_job`` on the same records (asserted, must be exact);
* ``match_per_record`` — Spell matches (``spell_index_hits_total``)
  per record consumed; the live pass's matches are carried to session
  close, so this is asserted to be exactly 1.0;
* ``anomalies_by_kind`` / ``health`` / ``degraded_s`` / ``quarantined``
  — the resilience-layer counters, recorded so regressions in anomaly
  mix or unexpected degradation show up in the benchmark artifact;
* a ``capped`` sub-run with the session cap set to a tenth of the
  workload's container count, asserting peak stays under the cap;
* ``cpu_count`` and ``git_sha`` of the run, at the top level.

Unlike the pytest-benchmark microbenches, each pass is one realistic
replay timed wall-clock on its own runtime (the runtime is stateful;
re-running one would re-close already-closed sessions).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.parsing.records import split_sessions
from repro.stream import (
    IterableSource,
    ListSink,
    StreamRuntime,
    TrackerConfig,
)

from bench_common import RESULTS_DIR, SCALE, git_sha, write_result

REPLAY_JOBS = 3 * SCALE
#: Timed replays per system add up to at least this many seconds.
MIN_TIMED_S = 0.5


def _replay_records(generators, system):
    jobs = generators[system].run_batch(system, REPLAY_JOBS)
    records = [r for job in jobs for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def _run(model, records, **tracker_kwargs):
    sink = ListSink()
    runtime = StreamRuntime(
        model, IterableSource(records), sink=sink,
        tracker=TrackerConfig(**tracker_kwargs),
    )
    start = time.perf_counter()
    stats = runtime.run(once=True)
    elapsed = time.perf_counter() - start
    hits = runtime.registry.get("spell_index_hits_total")
    matches = sum(value for _, value in hits.samples())
    return sink, stats, elapsed, matches / max(stats.records, 1)


def test_stream_throughput_and_parity(models, generators):
    results = {
        "scale": SCALE,
        "replay_jobs": REPLAY_JOBS,
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha(),
        "systems": {},
    }
    for system in ("spark", "mapreduce"):
        model = models[system]
        records = _replay_records(generators, system)
        batch = model.detect_job(split_sessions(records))
        expected = {s.session_id: s.to_dict() for s in batch.sessions}

        rates: list[float] = []
        timed = 0.0
        while timed < MIN_TIMED_S:
            sink, stats, elapsed, match_per_record = _run(
                model, records, idle_timeout=1e12, max_open_sessions=10**9,
            )
            rates.append(len(records) / max(elapsed, 1e-9))
            timed += elapsed
        got = {r.session_id: r.to_dict() for r in sink.reports}
        parity = got == expected
        assert parity, (
            f"{system}: streaming reports diverge from batch detect_job "
            f"({len(got)} vs {len(expected)} sessions)"
        )

        assert match_per_record == 1.0, (
            f"{system}: {match_per_record} Spell matches per record "
            f"(each record must be matched once)"
        )

        # Bounded-memory run: 10x more containers than the cap allows.
        n_sessions = len(expected)
        cap = max(1, n_sessions // 10)
        _, capped_stats, capped_elapsed, _ = _run(
            model, records,
            idle_timeout=1e12, max_open_sessions=cap, end_markers=(),
        )
        assert capped_stats.peak_open_sessions <= cap, (
            f"{system}: peak {capped_stats.peak_open_sessions} exceeded "
            f"session cap {cap}"
        )

        results["systems"][system] = {
            "records": len(records),
            "sessions": n_sessions,
            "records_per_s": round(statistics.median(rates)),
            "passes": len(rates),
            "elapsed_s": round(timed, 3),
            "peak_open_sessions": stats.peak_open_sessions,
            "reports": stats.reports,
            "anomalous_sessions": stats.anomalous_sessions,
            "closed_by_reason": stats.closed_by_reason,
            "anomalies_by_kind": stats.anomalies_by_kind,
            "health": stats.health,
            "degraded_s": round(stats.degraded_s, 3),
            "io_failures": stats.io_failures,
            "quarantined": stats.quarantined,
            "parity": parity,
            "match_per_record": match_per_record,
            "capped": {
                "cap": cap,
                "peak_open_sessions": capped_stats.peak_open_sessions,
                "evictions": capped_stats.evictions,
                "records_per_s": round(
                    len(records) / max(capped_elapsed, 1e-9)
                ),
            },
        }

    text = json.dumps(results, indent=2)
    (RESULTS_DIR / "BENCH_stream.json").write_text(text + "\n")
    write_result("BENCH_stream.txt", text)
