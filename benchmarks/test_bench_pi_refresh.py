"""PI refresh over engine jobs: one solve and one set of job snapshots.

A refresh is what one sampler callback does inside a simulator step:
``rdbms.remaining_times()``, ``rdbms.snapshot()`` and
``MultiQueryProgressIndicator().estimate(snapshot)`` -- the three reads of
the ``mcq_wide_pi`` end-to-end workload -- over ``n`` running
``EngineJob``\\ s, i.e. on the from-scratch path (the shared schedule only
serves synthetic jobs).

Host milliseconds per refresh go to ``BENCH_scale.json`` (section
``pi_refresh``) as a trajectory; they are recorded, not gated.  The gates
are **counts**, which repeat exactly on any machine:

* a refresh takes ``len(running) + len(queued)`` job snapshots, however
  many of the three reads it makes;
* each of those snapshots reads its engine job's progress tracker once:
  tracker reads per refresh equal the engine-job population, and no
  refresh calls the tracker's one-field reads;
* an empty-queue ``project()`` inserts nothing into a treap: the whole
  projection is one sort and one sweep of the flat kernel.

Run with ``make bench-pi``.
"""

import statistics
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.incremental import IncrementalSchedule
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.engine import Database
from repro.engine.progress import ProgressTracker
from repro.experiments.reporting import format_table
from repro.sim.jobs import EngineJob, Job
from repro.sim.rdbms import SimulatedRDBMS
from repro.sim.scale import merge_bench_json

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_scale.json"
SIZES = (100, 1000)
ROUNDS = 9
QUANTUM = 0.25


def engine_population(n: int) -> SimulatedRDBMS:
    """*n* running engine jobs, one U/s each, a few steps into their scans."""
    db = Database(page_capacity=5)
    db.execute("CREATE TABLE t (k INT, v FLOAT)")
    db.insert_rows("t", [(i, float(i)) for i in range(400)])
    db.analyze()
    rdbms = SimulatedRDBMS(processing_rate=float(n), quantum=QUANTUM)
    for i in range(n):
        rdbms.submit(EngineJob(
            f"q{i:04d}", db.prepare("SELECT k, v FROM t WHERE k >= 0"),
            priority=i % 3,
        ))
    rdbms.run_until(4 * QUANTUM)
    return rdbms


def refresh(rdbms: SimulatedRDBMS, pi: MultiQueryProgressIndicator):
    """One refresh; seconds spent in each of the three reads."""
    t0 = perf_counter()
    served = rdbms.remaining_times()
    t1 = perf_counter()
    snapshot = rdbms.snapshot()
    t2 = perf_counter()
    estimate = pi.estimate(snapshot)
    t3 = perf_counter()
    assert len(served) == len(estimate.remaining_seconds) == len(rdbms.running)
    return t1 - t0, t2 - t1, t3 - t2


def sampled_refreshes(rdbms: SimulatedRDBMS, rounds: int, extra=None) -> list:
    """Refresh from a sampler, once per step, as a live PI consumer does."""
    pi = MultiQueryProgressIndicator()
    samples = []

    def sampler(_rdbms):
        samples.append(refresh(rdbms, pi))
        if extra is not None:
            extra()

    rdbms.add_sampler(QUANTUM, sampler)
    rdbms.run_until(rdbms.clock + rounds * QUANTUM)
    assert len(samples) == rounds
    return samples


def measure(n: int) -> dict:
    rdbms = engine_population(n)
    samples = sampled_refreshes(rdbms, ROUNDS)
    assert len(rdbms.running) == n, "jobs finished inside the timed window"
    served_ms, snapshot_ms, estimate_ms = (
        statistics.median(column) * 1e3 for column in zip(*samples)
    )
    return {
        "n": n,
        "rounds": ROUNDS,
        # The first read of a state pays for the n job snapshots.
        "remaining_times_ms": served_ms,
        "snapshot_ms": snapshot_ms,
        "estimate_ms": estimate_ms,
        "refresh_ms": statistics.median(sum(s) for s in samples) * 1e3,
    }


def counted_refresh(n: int, monkeypatch) -> dict:
    """One refresh under counting wrappers (not timed)."""
    counts = {
        "job_snapshots": 0, "tracker_reads": 0, "tracker_field_reads": 0,
        "treap_inserts": 0,
    }

    def counting(cls, name, key):
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    rdbms = engine_population(n)
    counting(Job, "snapshot", "job_snapshots")
    counting(ProgressTracker, "read", "tracker_reads")
    counting(ProgressTracker, "estimated_remaining_cost", "tracker_field_reads")
    counting(ProgressTracker, "memory_pressure_events", "tracker_field_reads")
    counting(IncrementalSchedule, "add", "treap_inserts")
    counting(IncrementalSchedule, "add_validated", "treap_inserts")

    def each_pi_reads_its_own():
        for job in rdbms.running:
            rdbms.remaining_time_of(job.query_id)

    sampled_refreshes(rdbms, 1, extra=each_pi_reads_its_own)
    counts["population"] = len(rdbms.running) + len(rdbms.queued)
    counts["engine_jobs"] = sum(
        isinstance(job, EngineJob) for job in (*rdbms.running, *rdbms.queued)
    )
    counts["shared_schedule_supported"] = rdbms.shared_schedule_supported
    return counts


@pytest.mark.scale
def test_pi_refresh(once, monkeypatch):
    points = once(lambda: [measure(n) for n in SIZES])
    counted = counted_refresh(SIZES[0], monkeypatch)
    merge_bench_json(BENCH_JSON, "pi_refresh", {
        "reads": ["remaining_times", "snapshot", "estimate"],
        "jobs": "EngineJob (from-scratch path)",
        "points": points,
        "counts": counted,
    })

    print()
    print(f"PI refresh over engine jobs (median of {ROUNDS} refreshes, ms):")
    print(format_table(
        ["n", "remaining_times", "snapshot", "estimate", "refresh"],
        [
            (p["n"], f"{p['remaining_times_ms']:.3f}", f"{p['snapshot_ms']:.3f}",
             f"{p['estimate_ms']:.3f}", f"{p['refresh_ms']:.3f}")
            for p in points
        ],
    ))
    print(f"counts at n={SIZES[0]}: {counted}")

    assert not counted["shared_schedule_supported"]
    assert counted["job_snapshots"] == counted["population"] == SIZES[0]
    assert counted["tracker_reads"] == counted["engine_jobs"] == SIZES[0]
    assert counted["tracker_field_reads"] == 0
    assert counted["treap_inserts"] == 0
