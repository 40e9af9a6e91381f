"""``train``: raw lines -> formatter -> sessions -> one model per system.

Normal Spark, MapReduce and Tez jobs (the paper's §6.1 mix, smaller
than its 100 jobs per system so several rounds fit in one run).  Each
timed round trains one model per system from its raw lines through the
default ``IntelLog.train``.  Every run also trains each system once with
``workers=2`` (untimed; it feeds the ``parallel`` layer's numbers) and
requires the two paths' ``ModelStore`` payloads to be identical.
"""

from __future__ import annotations

import time

from repro import IntelLog
from repro.query import ModelStore

import corpus
import tracing

#: Normal jobs per system in the training corpus.
TRAIN_JOBS = 32


def _corpora(seed: int) -> dict[str, list[str]]:
    corpora = {}
    for system in corpus.SYSTEMS:
        jobs = corpus.normal_jobs(
            corpus.generator(seed, "train", system), system, TRAIN_JOBS
        )
        corpora[system] = [
            line for job in jobs for line in corpus.render_lines(job)
        ]
    return corpora


def _train(lines: list[str], workers: int | None):
    """``(model, records)`` trained from raw lines."""
    records = corpus.parse(lines)
    intellog = IntelLog()
    intellog.train(corpus.sessions_of_records(records), workers=workers)
    return intellog, len(records)


class Workload:
    def setup(self, seed, budget, work):
        return _corpora(seed)

    def prepare(self, corpora, ledger) -> None:
        """Train each system once with ``workers=2`` (untimed).

        Its digests are what every timed default-path model must
        reproduce, and its ``ParallelReport``s give the ``parallel``
        layer's numbers.  It also finishes lazy imports and caches
        before timing starts.
        """
        self.reference: dict[str, str] = {}
        reports = []
        records = 0
        busy = 0.0
        for system, lines in corpora.items():
            start = time.perf_counter()
            model, n = _train(lines, 2)
            busy += time.perf_counter() - start
            records += n
            reports.append(model.last_parallel_report)
            self.reference[system] = ModelStore.from_intellog(model).digest()
            ledger.attempt()
        hits = sum(r.cache_hits for r in reports)
        lookups = hits + sum(r.cache_misses for r in reports)
        self.parallel = {
            "parallel.records_per_s": records / busy,
            "parallel.wall_s": sum(r.total_wall for r in reports),
            "parallel.batches": sum(r.batches for r in reports),
            "parallel.payload_bytes": sum(r.payload_bytes_total for r in reports),
            "parallel.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }

    def measure(self, corpora, budget, recorder, ledger) -> dict:
        """Rounds of default-path training, one model per system each.

        The rate is a round's records over the sum of each system's
        fastest training time: on a shared host, interference only ever
        adds time, and the fastest of a run's rounds moves least with
        the host's load.
        """
        times: dict[str, list[float]] = {system: [] for system in corpora}
        records: dict[str, int] = {}
        deadline = time.perf_counter() + budget
        while not times["spark"] or time.perf_counter() < deadline:
            for system, lines in corpora.items():
                with tracing.region(recorder):
                    start = time.perf_counter()
                    model, records[system] = _train(lines, None)
                    times[system].append(time.perf_counter() - start)
                ledger.check(
                    ModelStore.from_intellog(model).digest()
                    == self.reference[system],
                    f"{system}: model payload differs between the "
                    f"default and workers=2 paths",
                )
        return {
            "records_per_s": sum(records.values()) / sum(
                min(t) for t in times.values()
            ),
            "samples": {"rounds": len(times["spark"]),
                        "records_per_round": sum(records.values())},
            "layers": dict(self.parallel),
        }
