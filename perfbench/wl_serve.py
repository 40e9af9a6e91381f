"""``serve``: a 4-tenant ``DetectionService`` following log files.

Two Spark and two MapReduce tenants share two registry models.  Each
tenant follows its own log file through ``FileFollowSource`` with
checkpoints on; sweeps run inline in one thread.

* Phase 1 is an **open loop**: one generator thread appends lines to
  the files on a fixed-seed Poisson schedule at ``RATE`` lines/s in
  total, whatever the service does.  A session's latency runs from the
  *scheduled* write of its last line to its report reaching the sink.
* Phase 2 is a **closed-loop drain**: fresh services drain pre-written
  files holding the first ``DRAIN_LINES`` lines of each tenant's open-loop
  stream, back to back, until the budget is spent.

Every report must equal batch ``detect_job`` on the same lines' records,
per session id; shed or quarantined records, lost records and sessions
never reported are failures.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time

import numpy as np

from repro import IntelLog
from repro.core.config import ServeConfig
from repro.query import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.stream.sink import CallbackSink

import corpus
import stats
import tracing

#: Offered load of the open loop, lines/s summed over the tenants: about
#: half of what a 4-tenant drain sustains on a 2-core host.
RATE = 4000.0
#: Share of the budget spent in the open loop; the drains get the rest.
OPEN_SHARE = 0.4
#: Lines per tenant in the drain files: the first lines the open loop
#: writes, so both phases see the same kind of traffic.  Fixed, so the
#: drain rate does not depend on the run length and a run holds several
#: drains.
DRAIN_LINES = 6000
#: Normal jobs each registry model is trained on.
TRAIN_JOBS = 16
#: (tenant id, model name) — the model name is also the system simulated.
TENANTS = (
    ("spark-a", "spark"),
    ("spark-b", "spark"),
    ("mr-a", "mapreduce"),
    ("mr-b", "mapreduce"),
)
#: Lead time between starting the generator and its first due line.
LEAD_S = 0.05


class OpenLoopWriter:
    """Writes lines when they are due, however the reader keeps up.

    ``offsets`` are due times in seconds after ``t0`` (ascending);
    every line due by the time the writer wakes is written in one batch.
    ``lateness`` holds, per line, how long after its due time it was
    written.  Clock and sleep are injectable for tests.
    """

    def __init__(self, offsets, write, clock=time.perf_counter,
                 sleep=time.sleep) -> None:
        self.offsets = offsets
        self.write = write
        self.clock = clock
        self.sleep = sleep
        self.lateness: list[float] = []

    def run(self, t0: float) -> None:
        offsets = self.offsets
        i = 0
        while i < len(offsets):
            now = self.clock() - t0
            if now < offsets[i]:
                self.sleep(offsets[i] - now)
                continue
            j = i
            while j < len(offsets) and offsets[j] <= now:
                j += 1
            self.write(i, j)
            written = self.clock() - t0
            self.lateness.extend(written - offsets[k] for k in range(i, j))
            i = j


def poisson_offsets(rng, rate: float, duration: float) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` over ``duration``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    times = np.cumsum(gaps)
    return times[times < duration].tolist()


class Workload:
    def setup(self, seed, budget, work):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        registry = ModelRegistry(work / "registry")
        for system in sorted({system for _, system in TENANTS}):
            jobs = corpus.normal_jobs(
                corpus.generator(seed, "serve-train", system), system, TRAIN_JOBS
            )
            lines = [line for job in jobs for line in corpus.render_lines(job)]
            model = IntelLog()
            model.train(corpus.sessions_of_lines(lines))
            registry.publish(ModelStore.from_intellog(model), system)

        open_s = budget * OPEN_SHARE
        per_tenant = RATE / len(TENANTS)
        merged = []  # (due offset, tenant index, session id, line)
        files = {}
        lines = {"open": {}, "drain": {}}
        for index, (tenant, system) in enumerate(TENANTS):
            rng = np.random.default_rng(corpus.derive_seed(seed, "arrivals", tenant))
            offsets = poisson_offsets(rng, per_tenant, open_s)
            gen = corpus.generator(seed, "serve", tenant)
            jobs = corpus.normal_jobs(gen, system)
            pairs: list[tuple[str, str]] = []
            want = max(len(offsets), DRAIN_LINES)
            while len(pairs) < want:
                pairs.extend(corpus.render_job(next(jobs)))
            pairs = pairs[:want]
            merged.extend(
                (due, index, sid, line)
                for due, (sid, line) in zip(offsets, pairs)
            )
            lines["open"][tenant] = [line for _, line in pairs[:len(offsets)]]
            lines["drain"][tenant] = [line for _, line in pairs[:DRAIN_LINES]]
            path = work / f"{tenant}.drain.log"
            path.write_text("".join(lines["drain"][tenant]))
            files[tenant] = path
        merged.sort(key=lambda row: (row[0], row[1]))
        last_line = {}
        for position, (_, index, sid, _) in enumerate(merged):
            last_line[(TENANTS[index][0], sid)] = position
        return {
            "work": work,
            "merged": merged,
            "offsets": [row[0] for row in merged],
            "last_line": last_line,
            "drain_files": files,
            "lines": lines,
        }

    def prepare(self, state, ledger) -> None:
        """Batch ``detect_job`` reports per phase, tenant and session id:
        what every streamed report must equal."""
        self.runs = 0
        registry = ModelRegistry(state["work"] / "registry")
        self.expected = {}
        for phase, by_tenant in state["lines"].items():
            self.expected[phase] = {}
            for tenant, system in TENANTS:
                lease = registry.acquire(system)
                sessions = corpus.sessions_of_lines(by_tenant[tenant])
                job = lease.detector_view().detect_job(sessions)
                self.expected[phase][tenant] = {
                    s.session_id: s.to_dict() for s in job.sessions
                }
                lease.release()

    # -- one service ------------------------------------------------------

    def _service(self, state, recorder, files):
        self.runs += 1
        root = state["work"] / f"run-{self.runs}"
        root.mkdir()
        sleep = time.sleep
        if recorder is not None:
            sleep = recorder.wrap("service.idle_sleep", time.sleep)
        service = DetectionService(
            ModelRegistry(state["work"] / "registry"),
            ServeConfig(workers=0),
            checkpoint_dir=root / "ckpt",
            sleep=sleep,
        )
        got: dict[str, dict] = {tenant: {} for tenant, _ in TENANTS}
        arrivals: dict[tuple[str, str], float] = {}
        dupes = [0]

        def sink_for(tenant):
            def emit(report, closed):
                if report.session_id in got[tenant]:
                    dupes[0] += 1
                got[tenant][report.session_id] = report.to_dict()
                if closed.reason != "flush":
                    arrivals[(tenant, report.session_id)] = time.perf_counter()
            return CallbackSink(emit)

        for tenant, system in TENANTS:
            service.attach(
                TenantSpec(tenant, system, log_path=str(files[tenant]),
                           formatter="hadoop"),
                sink=sink_for(tenant),
            )
        return service, got, arrivals, dupes

    def _harvest(self, phase, state, service, got, dupes, ledger,
                 layers) -> int:
        """Account one service's outcome; returns records consumed."""
        expected = self.expected[phase]
        consumed = 0
        for tenant, _ in TENANTS:
            handle = service.tenant(tenant)
            status = handle.status()
            offered = len(state["lines"][phase][tenant])
            consumed += status["records"]
            ledger.attempt(offered)
            ledger.fail("records shed", status["shed_records"])
            quarantined = sum(handle.runtime.stats.quarantined.values())
            ledger.fail("records quarantined", quarantined)
            ledger.fail(
                "records consumed differ from records offered",
                abs(offered - status["records"] - status["shed_records"]
                    - quarantined),
            )
            want = expected[tenant]
            have = got[tenant]
            ledger.attempt(len(want))
            ledger.fail("sessions never reported", len(set(want) - set(have)))
            ledger.fail("reports for unknown sessions", len(set(have) - set(want)))
            ledger.fail(
                "stream report differs from batch detect_job",
                sum(1 for sid in want if sid in have and have[sid] != want[sid]),
            )
            layers["tenant.shed_records"] += status["shed_records"]
            layers["tracker.peak_open"] = max(
                layers["tracker.peak_open"], handle.runtime.tracker.peak_open
            )
            for path, count in status["match_paths"].items():
                key = f"spell.match_{path}"
                if key in layers:
                    layers[key] += count
        ledger.fail("duplicate reports", dupes[0])
        reg = service.registry.stats()
        layers["registry.cold_loads"] += reg["cold_loads"]
        layers["registry.warm_hits"] += reg["warm_hits"]
        service.close()
        return consumed

    # -- phases -----------------------------------------------------------

    def measure(self, state, budget, recorder, ledger) -> dict:
        layers = {
            "tenant.shed_records": 0, "tracker.peak_open": 0,
            "registry.cold_loads": 0, "registry.warm_hits": 0,
            "spell.match_exact": 0, "spell.match_lcs": 0, "spell.match_miss": 0,
        }
        open_loop = self._open_loop(state, recorder, ledger, layers)
        rates: list[float] = []  # one per closed-loop drain
        records = open_loop["records"]
        deadline = time.perf_counter() + budget * (1 - OPEN_SHARE)
        while not rates or time.perf_counter() < deadline:
            service, got, _, dupes = self._service(
                state, recorder, state["drain_files"]
            )
            with tracing.region(recorder):
                start = time.perf_counter()
                service.drain()
                elapsed = time.perf_counter() - start
            consumed = self._harvest(
                "drain", state, service, got, dupes, ledger, layers
            )
            rates.append(consumed / elapsed)
            records += consumed
        return {
            "records_per_s": statistics.median(rates),
            "samples": {
                "drains": len(rates),
                "latency_samples": open_loop["samples"],
                "latency_percentile": open_loop["percentile"],
                "open_loop_lines": len(state["merged"]),
            },
            "layers": {
                **layers,
                "loadgen.lateness_p99_ms": open_loop["lateness_p99_ms"],
                "stream_detector.records": records,
            },
            "quality": {
                "serve_latency_p50_ms": open_loop["p50_ms"],
                "serve_latency_p99_ms": open_loop["tail_ms"],
            },
        }

    def _open_loop(self, state, recorder, ledger, layers) -> dict:
        paths = {
            tenant: state["work"] / f"run-open-{self.runs}-{tenant}.log"
            for tenant, _ in TENANTS
        }
        for path in paths.values():
            path.write_text("")
        service, got, arrivals, dupes = self._service(state, recorder, paths)
        merged = state["merged"]
        handles = [open(paths[tenant], "a") for tenant, _ in TENANTS]

        def write(i, j):
            touched = set()
            for _, index, _, line in merged[i:j]:
                handles[index].write(line)
                touched.add(index)
            for index in touched:
                handles[index].flush()

        writer = OpenLoopWriter(state["offsets"], write)
        t0 = time.perf_counter() + LEAD_S

        def generate():
            try:
                writer.run(t0)
            finally:
                service.stop()

        thread = threading.Thread(target=generate, name="loadgen")
        with tracing.region(recorder):
            try:
                thread.start()
                service.run()
            finally:
                thread.join()
                for handle in handles:
                    handle.close()
            service.drain()
        records = self._harvest(
            "open", state, service, got, dupes, ledger, layers
        )

        latencies = stats.session_latencies(
            t0, state["offsets"], state["last_line"], arrivals
        )
        values = [1000.0 * v for v in latencies.values()]
        percentile, tail_ms = stats.tail(values)
        return {
            "records": records,
            "samples": len(values),
            "percentile": percentile,
            "p50_ms": stats.percentile(values, 50.0),
            "tail_ms": tail_ms,
            "lateness_p99_ms": 1000.0 * stats.percentile(writer.lateness, 99.0),
        }
