"""Benchmark inputs: simulator jobs rendered to raw hadoop log4j lines.

The program under test only ever sees the rendered lines.  Ground truth
(which jobs carry an injected fault, which sessions a job has) stays on
the benchmark side and is used only to score and check the results.

Lines are rendered in the hadoop log4j layout with the YARN container id
in the thread slot, so ``yarn_session_key`` can attribute every record
to its container.  Within one job the lines are written in event-time
order, as YARN's aggregated logs interleave containers.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

from repro.parsing import records as records_mod
from repro.parsing.formatters import HadoopFormatter
from repro.simulators import (
    HIBENCH_JOBS,
    TPCH_QUERIES,
    JobSpec,
    WorkloadGenerator,
)
from repro.stream.source import yarn_session_key

#: Simulator clocks start near zero; shift them to a plausible epoch.
EPOCH = 1_500_000_000
SYSTEMS = ("spark", "mapreduce", "tez")


def derive_seed(seed: int, *tags: object) -> int:
    """A stable sub-seed for one input stream of the workload seed."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:4], "big"
    ) & 0x7FFFFFFF


def generator(seed: int, *tags: object) -> WorkloadGenerator:
    return WorkloadGenerator(seed=derive_seed(seed, *tags))


#: The §6.1 job mix: HiBench jobs for Spark and MapReduce, TPC-H
#: queries for Tez.
JOB_TYPES = {"spark": HIBENCH_JOBS, "mapreduce": HIBENCH_JOBS, "tez": TPCH_QUERIES}
INPUT_GB = (1.0, 2.0, 4.0, 8.0)
MEMORY_MB = (2048, 4096, 8192)
CORES = (1, 2, 4)


def normal_jobs(gen: WorkloadGenerator, system: str, count: int | None = None):
    """Fault-free jobs in a fixed, stratified order (endless if no count).

    Job types and resource configurations cycle through the §6.1 mix
    instead of being drawn at random, so every seed trains and serves
    the same mix; the seed still drives everything inside each job.
    """
    types = JOB_TYPES[system]
    i = 0
    while count is None or i < count:
        yield gen.run_spec(JobSpec(
            system=system,
            job_type=types[i % len(types)],
            input_gb=INPUT_GB[(i // len(types)) % len(INPUT_GB)],
            memory_mb=MEMORY_MB[i % len(MEMORY_MB)],
            cores=CORES[(i // len(MEMORY_MB)) % len(CORES)],
        ))
        i += 1


def render_job(job) -> list[tuple[str, str]]:
    """``(session_id, line)`` pairs for one simulated job, time-ordered."""
    rows = [
        (record.timestamp, order, session.session_id, record)
        for order, session in enumerate(job.sessions)
        for record in session.records
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    out = []
    for ts, _, session_id, record in rows:
        stamp = datetime.datetime.fromtimestamp(
            EPOCH + ts, datetime.timezone.utc
        )
        millis = int((ts % 1) * 1000)
        out.append((
            session_id,
            f"{stamp:%Y-%m-%d %H:%M:%S},{millis:03d} {record.level} "
            f"[{session_id}] org.apache.hadoop.{record.source}: "
            f"{record.message}\n",
        ))
    return out


def render_lines(job) -> list[str]:
    return [line for _, line in render_job(job)]


@dataclass(slots=True)
class RenderedJob:
    """One job as the program sees it, plus the benchmark's truth."""

    system: str
    app_id: str
    lines: list[str]
    has_fault: bool


def parse(lines) -> list:
    """Raw lines -> records through the hadoop formatter."""
    return list(HadoopFormatter().parse_lines(lines))


def sessions_of_records(records) -> list:
    """Attribute records to containers and split them into sessions.

    The same attribution ``FileFollowSource`` applies online;
    ``map`` is lazy, so attribution runs inside ``split_sessions``.
    """
    return records_mod.split_sessions(map(yarn_session_key, records))


def sessions_of_lines(lines) -> list:
    return sessions_of_records(parse(lines))
