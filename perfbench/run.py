"""IntelLog benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` spends half the budget untraced and half with every layer
call wrapped in a span (``tracing.install``), and prints the per-layer
metrics; ``trace.overhead_frac`` compares the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it carries the run's context (cpu count, python version, git sha, seed,
sample counts, failure reasons); both are also appended to
``perfbench/results/history.jsonl``, which is never rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_per_s": "rec/s",
}

#: Per-layer metric -> unit.  Every workload reports all of them; a
#: layer the workload does not exercise reads 0.
PER_LAYER = {
    "formatters.busy_s": "s",
    "formatters.lines": "count",
    "records.split_busy_s": "s",
    "spell.consume_busy_s": "s",
    "spell.consume_calls": "count",
    "spell.match_busy_s": "s",
    "spell.match_records": "count",
    "spell.match_exact": "count",
    "spell.match_lcs": "count",
    "spell.match_miss": "count",
    "extraction.build_busy_s": "s",
    "extraction.to_intel_busy_s": "s",
    "extraction.to_intel_calls": "count",
    "graph.train_session_busy_s": "s",
    "graph.build_busy_s": "s",
    "core.train_self_s": "s",
    "detection.session_self_s": "s",
    "detection.sessions": "count",
    "detection.anomalies": "count",
    "parallel.records_per_s": "rec/s",
    "parallel.wall_s": "s",
    "parallel.batches": "count",
    "parallel.payload_bytes": "bytes",
    "parallel.cache_hit_ratio": "ratio",
    "source.poll_busy_s": "s",
    "source.polls": "count",
    "source.empty_poll_ratio": "ratio",
    "tracker.observe_busy_s": "s",
    "tracker.peak_open": "count",
    "stream_detector.observe_busy_s": "s",
    "stream_detector.finalize_busy_s": "s",
    "stream_detector.match_per_record": "ratio",
    "checkpoint.saves": "count",
    "checkpoint.busy_s": "s",
    "checkpoint.bytes": "bytes",
    "service.cycles": "count",
    "service.cycle_busy_s": "s",
    "service.empty_cycle_ratio": "ratio",
    "service.idle_sleep_s": "s",
    "tenant.queue_depth_max": "count",
    "tenant.shed_records": "count",
    "registry.cold_loads": "count",
    "registry.warm_hits": "count",
    "loadgen.lateness_p99_ms": "ms",
    "detect_f1": "ratio",
    "serve_latency_p50_ms": "ms",
    "serve_latency_p99_ms": "ms",
    "failed_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Span name -> per-layer metric of its summed duration.
BUSY = {
    "formatters": "formatters.busy_s",
    "records.split": "records.split_busy_s",
    "spell.consume": "spell.consume_busy_s",
    "spell.match": "spell.match_busy_s",
    "extraction.build": "extraction.build_busy_s",
    "extraction.to_intel": "extraction.to_intel_busy_s",
    "graph.train_session": "graph.train_session_busy_s",
    "graph.build": "graph.build_busy_s",
    "source.poll": "source.poll_busy_s",
    "tracker.observe": "tracker.observe_busy_s",
    "stream_detector.observe": "stream_detector.observe_busy_s",
    "stream_detector.finalize": "stream_detector.finalize_busy_s",
    "checkpoint": "checkpoint.busy_s",
    "service.cycle": "service.cycle_busy_s",
    "service.idle_sleep": "service.idle_sleep_s",
}

#: Counters copied as they are from the recorder.
COUNTS = (
    "formatters.lines", "spell.consume_calls", "spell.match_records",
    "extraction.to_intel_calls", "detection.sessions", "detection.anomalies",
    "source.polls", "checkpoint.saves", "checkpoint.bytes", "service.cycles",
    "tenant.queue_depth_max",
)


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer(recorder, traced: dict, untraced: dict, ledger) -> dict:
    counts = recorder.counts
    out = {name: 0.0 for name in PER_LAYER}
    for span, name in BUSY.items():
        out[name] = recorder.busy(span)
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    out["core.train_self_s"] = recorder.self_time("core.train")
    out["detection.session_self_s"] = recorder.self_time("detection")
    polls = counts.get("source.polls", 0)
    if polls:
        out["source.empty_poll_ratio"] = counts.get("source.empty_polls", 0) / polls
    cycles = counts.get("service.cycles", 0)
    if cycles:
        out["service.empty_cycle_ratio"] = (
            counts.get("service.empty_cycles", 0) / cycles
        )
    layers = dict(traced.get("layers", {}))
    stream_records = layers.pop("stream_detector.records", 0)
    if stream_records:
        out["stream_detector.match_per_record"] = (
            counts.get("spell.match_records", 0) / stream_records
        )
    out.update(layers)
    out.update(untraced.get("quality", {}))
    out["failed_frac"] = ledger.frac
    out["trace.coverage"] = recorder.coverage
    out["trace.overhead_frac"] = (
        untraced["records_per_s"] / traced["records_per_s"] - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import selftest
    import stats
    import tracing
    import wl_detect
    import wl_serve
    import wl_train
    from repro.core.errors import ModelValidationWarning

    workloads = {
        "train": wl_train.Workload,
        "detect": wl_detect.Workload,
        "serve": wl_serve.Workload,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    warnings.simplefilter("ignore", ModelValidationWarning)

    workload = workloads[args.workload]()
    ledger = stats.Ledger()
    selftest.run_all(ledger)
    budget = args.seconds / 2 if args.trace else args.seconds
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            state = workload.setup(args.seed, budget, work)
            setup_times.append(time.perf_counter() - start)
        workload.prepare(state, ledger)
        untraced = workload.measure(state, budget, None, ledger)
        traced = None
        if args.trace:
            recorder = tracing.Recorder()
            tracing.install(recorder)
            try:
                traced = workload.measure(state, budget, recorder, ledger)
            finally:
                recorder.unpatch()
        check = getattr(workload, "check", None)
        if check is not None:
            check(state, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(recorder, traced, untraced, ledger)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "records_per_s": untraced["records_per_s"],
        }
        units = END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "unix_time": time.time(),
        "setup_s": setup_times,
        "samples": untraced["samples"],
        "quality": untraced.get("quality", {}),
        "failed_frac": ledger.frac,
        "failures": ledger.reasons,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / "history.jsonl", "a") as fp:
        fp.write(json.dumps({**context, "result": result}) + "\n")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
