"""The simulator's per-state memo of job snapshots is never stale.

While the clock is being advanced, ``snapshot()``, ``remaining_times()``
and ``remaining_time_of()`` read one memoised set of ``Job.snapshot()``
results and one solve per simulator state.  Whatever interleaving of
lifecycle operations leads to a state, the three reads must equal a
recomputation from fresh ``job.snapshot()`` calls.  The operations here
are applied from event callbacks *inside* a run -- where the memo lives
and where workload managers act -- with a read just before each one, so
an operation that forgot to invalidate would be served the state before
it; the finish / failure / arrival hooks and a sampler read in between.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import SystemSnapshot
from repro.core.standard_case import standard_case
from repro.engine import Database
from repro.obs import observed
from repro.sim.jobs import CostNoiseJob, EngineJob, SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS

TOL = 1e-9
SQL = (
    "SELECT k, v FROM t WHERE k >= 0",
    "SELECT COUNT(*), SUM(v) FROM t",
    # Divides by zero at k = 50: fails at runtime, inside a step.
    "SELECT 100.0 / (50 - k) FROM t WHERE k >= 0",
)


def small_db() -> Database:
    db = Database(page_capacity=5)
    db.execute("CREATE TABLE t (k INT, v FLOAT)")
    db.insert_rows("t", [(i, float(i)) for i in range(100)])
    db.analyze()
    return db


def fresh_system_snapshot(rdbms: SimulatedRDBMS) -> SystemSnapshot:
    return SystemSnapshot(
        running=tuple(j.snapshot() for j in rdbms.running),
        queued=tuple(j.snapshot() for j in rdbms.queued),
        processing_rate=rdbms.processing_rate,
        multiprogramming_limit=rdbms.multiprogramming_limit,
        time=rdbms.clock,
    )


def assert_reads_are_fresh(rdbms: SimulatedRDBMS, context: str) -> None:
    expected = fresh_system_snapshot(rdbms)
    # A NaN estimate makes == fail on equal snapshots; compare by repr.
    assert repr(rdbms.snapshot()) == repr(expected), context
    oracle = standard_case(
        [j.snapshot() for j in rdbms.running], rdbms.processing_rate,
        include_stages=False,
    ).remaining_times
    served = rdbms.remaining_times()
    assert set(served) == set(oracle), context
    from_scratch = not rdbms.shared_schedule_supported
    for qid, want in oracle.items():
        for got in (served[qid], rdbms.remaining_time_of(qid)):
            if from_scratch:
                assert got == want, f"{context}: {qid}"
            else:
                assert math.isclose(got, want, rel_tol=TOL, abs_tol=TOL), (
                    f"{context}: {qid} {got} vs {want}"
                )
    # What a caller does to its copy never reaches the memo.
    served.clear()
    assert set(rdbms.remaining_times()) == set(oracle), context


OPS = ("submit", "submit", "run", "block", "unblock", "abort", "fail",
       "set_priority")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_reads_equal_a_fresh_recomputation_after_every_operation(data):
    db = small_db()
    rdbms = SimulatedRDBMS(
        processing_rate=data.draw(st.sampled_from([5.0, 20.0]), label="rate"),
        multiprogramming_limit=data.draw(
            st.sampled_from([None, 2, 4]), label="mpl"
        ),
        quantum=0.25,
    )
    # Reads from inside a step: hooks fire between two removals of one
    # step, samplers after arrivals and events.
    inside = lambda *_: assert_reads_are_fresh(rdbms, "inside a step")  # noqa: E731
    rdbms.on_finish.append(inside)
    rdbms.on_failure.append(inside)
    rdbms.on_arrival.append(inside)
    rdbms.add_sampler(0.7, inside)

    made = 0

    def operate(op: str, step: int) -> None:
        """One lifecycle operation, drawn against the state it meets."""
        nonlocal made
        live = sorted(
            qid for qid, r in rdbms.records().items() if not r.terminal
        )
        running = sorted(j.query_id for j in rdbms.running)
        blocked = sorted(j.query_id for j in rdbms.blocked)
        if op == "submit":
            kind = data.draw(
                st.sampled_from(["engine", "synthetic", "noise"]), label="kind"
            )
            qid = f"{kind[0]}{made}"
            made += 1
            priority = data.draw(st.integers(0, 2), label="priority")
            if kind == "engine":
                sql = data.draw(st.sampled_from(SQL), label="sql")
                job = EngineJob(qid, db.prepare(sql), priority=priority)
            else:
                cost = data.draw(st.floats(0.5, 40.0), label="cost")
                job = SyntheticJob(qid, cost, priority=priority)
                if kind == "noise":
                    job = CostNoiseJob(
                        job, data.draw(st.floats(0.2, 5.0), label="factor")
                    )
            rdbms.submit(job)
        elif op == "block" and running:
            rdbms.block(
                data.draw(st.sampled_from(running), label="victim"),
                admit_replacement=data.draw(st.booleans(), label="replace"),
            )
        elif op == "unblock" and blocked:
            rdbms.unblock(data.draw(st.sampled_from(blocked), label="back"))
        elif op == "abort" and live:
            rdbms.abort(
                data.draw(st.sampled_from(live), label="aborted"),
                rollback_overhead=data.draw(
                    st.sampled_from([0.0, 2.0]), label="rollback"
                ),
            )
        elif op == "fail" and live:
            rdbms.fail(data.draw(st.sampled_from(live), label="failed"))
        elif op == "set_priority" and live:
            rdbms.set_priority(
                data.draw(st.sampled_from(live), label="reprioritised"),
                data.draw(st.integers(0, 3), label="new_priority"),
            )

    for step in range(data.draw(st.integers(1, 14), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label=f"op{step}")
        dt = data.draw(st.floats(0.0, 3.0), label="dt")
        if op != "run":
            def event(_rdbms, op=op, step=step):
                # Fill the memo, change the state, read again.
                assert_reads_are_fresh(rdbms, f"before op {step} ({op})")
                operate(op, step)
                assert_reads_are_fresh(rdbms, f"after op {step} ({op})")

            rdbms.add_event(rdbms.clock + dt / 2, event)
        rdbms.run_until(rdbms.clock + dt)
        assert_reads_are_fresh(rdbms, f"at rest after op {step} ({op})")
        assert rdbms._running_snapshots is None  # nothing kept at rest


def test_fail_everything_and_resubmit_refresh_the_memo():
    rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=2)
    for i in range(4):
        rdbms.submit(CostNoiseJob(SyntheticJob(f"q{i}", 20.0 + i), 1.5))
    assert_reads_are_fresh(rdbms, "submitted")

    def crash_and_retry(_rdbms):
        assert_reads_are_fresh(rdbms, "ran")
        failed = rdbms.fail_everything()
        assert set(failed) == {"q0", "q1", "q2", "q3"}
        assert_reads_are_fresh(rdbms, "all failed")
        assert rdbms.remaining_times() == {}
        rdbms.resubmit(CostNoiseJob(SyntheticJob("q2", 7.0), 0.5))
        assert_reads_are_fresh(rdbms, "resubmitted")
        assert list(rdbms.remaining_times()) == ["q2"]

    rdbms.add_event(1.0, crash_and_retry)
    rdbms.run_until(1.5)
    assert rdbms.record("q2").attempts == 2
    assert_reads_are_fresh(rdbms, "at rest")


def test_two_removals_in_one_step_each_refresh_the_memo():
    """The finish and failure hooks read between removals of one step."""
    db = small_db()
    rdbms = SimulatedRDBMS(processing_rate=8.0, quantum=0.25)
    reads = []

    def hook(*_):
        assert_reads_are_fresh(rdbms, "between removals")
        reads.append(len(rdbms.running))

    rdbms.on_finish.append(hook)
    rdbms.on_failure.append(hook)
    for qid in ("twin_a", "twin_b"):  # equal cost and weight: one finish step
        rdbms.submit(SyntheticJob(qid, 4.0))
    for qid in ("bad_a", "bad_b"):  # both reach k = 50 in the same quantum
        rdbms.submit(EngineJob(qid, db.prepare(SQL[2])))
    rdbms.submit(SyntheticJob("long", 500.0))
    rdbms.run_until(30.0)
    assert rdbms.record("twin_a").trace.finished_at == (
        rdbms.record("twin_b").trace.finished_at
    )
    assert rdbms.record("bad_a").trace.failed_at == (
        rdbms.record("bad_b").trace.failed_at
    )
    assert len(reads) == 4


def test_simultaneous_finishers_stay_in_the_shared_schedule_until_retired():
    """A finish hook sees the other finisher of its step at zero remaining."""
    rdbms = SimulatedRDBMS(processing_rate=5.0, quantum=0.25)
    seen = []

    def hook(_t, qid):
        assert rdbms.shared_schedule_supported
        assert_reads_are_fresh(rdbms, f"retiring {qid}")
        seen.append(rdbms.remaining_times())

    rdbms.on_finish.append(hook)
    rdbms.submit(SyntheticJob("s0", 1.0))
    rdbms.submit(SyntheticJob("s1", 1.0))
    rdbms.remaining_times()  # build the shared schedule before the step
    rdbms.run_until(1.0)
    assert seen == [{"s1": 0.0}, {}]


def test_queue_only_changes_refresh_the_memo():
    """Unblock and resubmit into a full system change only the queue."""
    rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=2)
    for i in range(4):
        rdbms.submit(CostNoiseJob(SyntheticJob(f"q{i}", 50.0 + i), 1.5))

    def act(_rdbms):
        assert_reads_are_fresh(rdbms, "ran")
        rdbms.block("q0", admit_replacement=True)  # q2 takes the slot
        assert_reads_are_fresh(rdbms, "blocked")
        rdbms.unblock("q0")  # no free slot: front of the queue
        assert [j.query_id for j in rdbms.queued] == ["q0", "q3"]
        assert_reads_are_fresh(rdbms, "unblocked into the queue")
        rdbms.fail("q3")
        assert_reads_are_fresh(rdbms, "failed in the queue")
        rdbms.resubmit(CostNoiseJob(SyntheticJob("q3", 9.0), 0.5))
        assert [j.query_id for j in rdbms.queued] == ["q0", "q3"]
        assert_reads_are_fresh(rdbms, "resubmitted into the queue")

    rdbms.add_event(1.0, act)
    rdbms.run_until(2.0)
    assert_reads_are_fresh(rdbms, "at rest")


class CountingJob(CostNoiseJob):
    """Counts ``snapshot()`` calls across all instances."""

    snapshots_taken = 0

    def snapshot(self):
        CountingJob.snapshots_taken += 1
        return super().snapshot()


def test_one_refresh_takes_each_job_snapshot_once():
    counts = []

    def refresh(rdbms: SimulatedRDBMS) -> None:
        population = len(rdbms.running) + len(rdbms.queued)
        before = CountingJob.snapshots_taken
        rdbms.remaining_times()
        rdbms.snapshot()
        for job in rdbms.running:
            rdbms.remaining_time_of(job.query_id)
        rdbms.snapshot()
        counts.append((CountingJob.snapshots_taken - before, population))

    with observed() as obs:
        rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=5)
        for i in range(8):
            rdbms.submit(CountingJob(SyntheticJob(f"q{i}", 10.0 + 3 * i), 2.0))
        assert not rdbms.shared_schedule_supported
        rdbms.add_sampler(1.0, refresh)
        rdbms.run_to_completion()
    assert len(counts) > 5
    assert any(population > 5 for _, population in counts)  # a queue existed
    for taken, population in counts:
        assert taken == population
    # One memo fill of the running set per refresh, every refresh a
    # from-scratch one.
    assert obs.metrics.counter_value("rdbms.snapshots.built") == len(counts)
    assert obs.metrics.counter_value("rdbms.refresh.recompute") == len(counts)
    assert obs.metrics.counter_value("rdbms.refresh.shared") == 0
