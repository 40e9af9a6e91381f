"""``detect``: repeated §6.4 detection campaigns, raw lines -> JobReports.

Per system, a model is trained in set-up from the raw lines of normal
jobs.  Each campaign, from its own seed, gives 5 configs x
(3 fault-injected + 3 clean) jobs.  The timed loop runs formatter ->
sessions -> one ``detect_job`` per job over all of them, pass after
pass.  F1 is scored from the simulator's fault labels.
"""

from __future__ import annotations

import time

from repro import IntelLog
from repro.core.metrics import score_predictions
from repro.obs import MetricsRegistry

import corpus
import tracing

#: Normal jobs per system the detection models are trained on.
TRAIN_JOBS = 16
#: Campaigns per system, each 30 jobs from its own seed.  One keeps a
#: pass short (about 1 s), so each job is timed often enough in a run
#: for its fastest time to stay clear of the host's slow spells.
CAMPAIGNS = 1


class Workload:
    def setup(self, seed, budget, work):
        models = {}
        jobs = []
        for system in corpus.SYSTEMS:
            train_jobs = corpus.normal_jobs(
                corpus.generator(seed, "detect-train", system), system, TRAIN_JOBS
            )
            lines = [
                line for job in train_jobs for line in corpus.render_lines(job)
            ]
            model = IntelLog()
            model.train(corpus.sessions_of_lines(lines))
            models[system] = model
            for repeat in range(CAMPAIGNS):
                campaign = corpus.generator(
                    seed, "campaign", system, repeat
                ).detection_campaign(system)
                jobs.extend(
                    corpus.RenderedJob(
                        system, job.app_id, corpus.render_lines(job), has_fault
                    )
                    for job, has_fault in campaign
                )
        return {"models": models, "jobs": jobs}

    def prepare(self, state, ledger) -> None:
        """Detect every job once, untimed: the reference verdicts."""
        self.first = [self._detect(state, job)[0] for job in state["jobs"]]

    @staticmethod
    def _detect(state, job):
        records = corpus.parse(job.lines)
        sessions = corpus.sessions_of_records(records)
        report = state["models"][job.system].detect_job(sessions, job.app_id)
        return report, len(records)

    def measure(self, state, budget, recorder, ledger) -> dict:
        registry = None
        if recorder is not None:
            registry = MetricsRegistry()
            for model in state["models"].values():
                model.spell.instrument(registry)
        jobs = state["jobs"]
        times: list[list[float]] = [[] for _ in jobs]
        records = [0] * len(jobs)
        detected = 0
        deadline = time.perf_counter() + budget
        while detected < len(jobs) or time.perf_counter() < deadline:
            index = detected % len(jobs)
            with tracing.region(recorder):
                start = time.perf_counter()
                report, records[index] = self._detect(state, jobs[index])
                times[index].append(time.perf_counter() - start)
            detected += 1
            ledger.check(
                [s.to_dict() for s in report.sessions]
                == [s.to_dict() for s in self.first[index].sessions],
                "detect_job reports changed between passes",
            )
        labels = [job.has_fault for job in jobs]
        predicted = [report.anomalous for report in self.first]
        layers = {}
        if registry is not None:
            layers.update(_index_paths(registry))
        # Each job's fastest time over the passes: a job takes 5-30 ms,
        # short enough that the host's interference only ever adds time.
        return {
            "records_per_s": sum(records) / sum(min(t) for t in times),
            "samples": {"jobs": detected, "passes": detected / len(jobs)},
            "layers": layers,
            "quality": {
                "detect_f1": score_predictions(labels, predicted).f_measure
            },
        }

    def check(self, state, ledger) -> None:
        """Batch reports must equal per-session ``detect_session`` ones."""
        for job, report in zip(state["jobs"], self.first):
            model = state["models"][job.system]
            sessions = corpus.sessions_of_lines(job.lines)
            single = [model.detect_session(s).to_dict() for s in sessions]
            ledger.check(
                single == [s.to_dict() for s in report.sessions],
                "detect_job differs from per-session detect_session",
            )


def _index_paths(registry) -> dict[str, float]:
    """``spell.match_{exact,lcs,miss}`` from ``spell_index_hits_total``."""
    out = {"spell.match_exact": 0.0, "spell.match_lcs": 0.0,
           "spell.match_miss": 0.0}
    metric = registry.get("spell_index_hits_total")
    if metric is not None:
        for labels, value in metric.samples():
            name = f"spell.match_{labels.get('path')}"
            if name in out:
                out[name] += value
    return out
