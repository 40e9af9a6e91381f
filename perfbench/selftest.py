"""Self-tests of the benchmark: the renderer and the metric maths.

They run at the start of every benchmark run, each counting as one
attempted check, and on their own::

    python3 perfbench/selftest.py

No test sleeps or reads the wall clock: clocks are injected.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from pathlib import Path

import stats
import tracing


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_renderer_round_trip() -> None:
    """Rendering then formatter + yarn_session_key + split_sessions gives
    back the simulator's session ids and per-session record counts."""
    import corpus

    for system in corpus.SYSTEMS:
        gen = corpus.generator(0, "selftest", system)
        for job in gen.run_batch(system, 2):
            sessions = corpus.sessions_of_lines(corpus.render_lines(job))
            got = Counter({s.session_id: len(s) for s in sessions})
            want = Counter({s.session_id: len(s) for s in job.sessions})
            assert got == want, f"{system} {job.app_id}: {got} != {want}"


def test_latency_from_scheduled_time() -> None:
    """A late writer's delay counts: latency starts at the due time."""
    from wl_serve import OpenLoopWriter

    clock = FakeClock()
    written_at = {}

    def write(i, j):
        clock.now += 0.5  # each write stalls half a second
        for k in range(i, j):
            written_at[k] = clock.now

    def sleep(seconds):
        clock.now += seconds

    writer = OpenLoopWriter([0.0, 0.1, 2.0], write, clock=clock, sleep=sleep)
    writer.run(t0=0.0)
    assert written_at == {0: 0.5, 1: 1.0, 2: 2.5}, written_at
    assert [round(v, 9) for v in writer.lateness] == [0.5, 0.9, 0.5]
    # Session "s" ends with line 1, due at 0.1 and written at 1.0; its
    # report arrives at 1.2.  Latency is 1.1 (from due), not 0.2.
    latency = stats.session_latencies(
        0.0, writer.offsets, {"s": 1, "lost": 2}, {"s": 1.2}
    )
    assert set(latency) == {"s"}
    assert abs(latency["s"] - 1.1) < 1e-9, latency


def test_percentile_choice() -> None:
    """The reported tail has at least ten samples beyond it."""
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(999) == 98.0
    assert stats.supported_percentile(500) == 98.0
    assert stats.supported_percentile(499) == 95.0
    assert stats.supported_percentile(20) == 50.0
    assert stats.supported_percentile(19) is None
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50.5
    assert abs(stats.percentile(values, 99.0) - 99.01) < 1e-9
    assert stats.tail(list(range(1000)))[0] == 99.0


def test_self_time() -> None:
    """Self time is a span's duration minus what its children cover."""
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)

    def child(seconds):
        clock.now += seconds

    def parent():
        clock.now += 1.0
        rec.call("b", child, 2.0)
        clock.now += 0.5
        rec.call("c", child, 3.0)
        rec.call("a", child, 0.25)  # same layer again: folded into "a"
        clock.now += 0.25

    rec.call("a", parent)  # not in a region: untimed
    assert rec.spans == {} and rec.top_level == 0.0
    with rec.region():
        rec.call("a", parent)
        clock.now += 1.0  # benchmark work outside any span
    assert rec.busy("a") == 7.0
    assert rec.self_time("a") == 2.0  # 7 - (2 + 3)
    assert rec.self_time("b") == 2.0 and rec.self_time("c") == 3.0
    assert rec.calls("a") == 1
    assert rec.top_level == 7.0 and rec.region_wall == 8.0
    assert rec.coverage == 7.0 / 8.0


def test_failure_counting() -> None:
    ledger = stats.Ledger()
    assert ledger.frac == 0.0
    ledger.check(True, "ok")
    ledger.check(False, "mismatch")
    ledger.attempt(8)
    ledger.fail("records shed", 2)
    ledger.fail("records shed", 0)
    assert (ledger.attempted, ledger.failed) == (10, 3)
    assert ledger.reasons == {"mismatch": 1, "records shed": 2}
    assert ledger.frac == 0.3


TESTS = (
    test_renderer_round_trip,
    test_latency_from_scheduled_time,
    test_percentile_choice,
    test_self_time,
    test_failure_counting,
)


def run_all(ledger) -> None:
    """Run every self-test, one attempted check each."""
    for test in TESTS:
        try:
            test()
        except Exception:  # noqa: BLE001 - report and count, keep going
            traceback.print_exc(file=sys.stderr)
            ledger.check(False, f"self-test {test.__name__} failed")
        else:
            ledger.check(True, "")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    ledger = stats.Ledger()
    run_all(ledger)
    print(f"{ledger.attempted - ledger.failed}/{ledger.attempted} self-tests passed")
    sys.exit(1 if ledger.failed else 0)
