"""Tests for per-query deadline enforcement in the simulated RDBMS.

Semantics under test: a deadline is *absolute* once set (submit time plus
the job's relative deadline), belongs to the query rather than the
attempt (resubmission does not reset it), expiry aborts the query exactly
at the deadline (an intentional workload-management action, never
retried), and a query finishing exactly at its deadline counts as
finished.
"""

import pytest

from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


def crash_and_resubmit(rdbms, crash_at, retry_at, replacement):
    """Fail ``q`` at *crash_at* and resubmit *replacement* at *retry_at*.

    The shape of the shard router's failover onto a node that already ran
    the sub-query.
    """
    rdbms.add_event(crash_at, lambda r: r.fail("q", reason="node crash"))
    rdbms.add_event(retry_at, lambda r: r.resubmit(replacement))


class TestJobDeadlines:
    def test_deadline_must_be_positive(self):
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError):
                SyntheticJob("q", 100, deadline=bad)

    def test_submit_sets_absolute_deadline(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.run_until(3.0)
        rdbms.submit(SyntheticJob("q", 100, deadline=20.0))
        assert rdbms.record("q").deadline_at == pytest.approx(23.0)

    def test_no_deadline_by_default(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        assert rdbms.record("q").deadline_at is None


class TestEnforcement:
    def test_expired_deadline_aborts_at_exactly_that_time(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        # 900 U at 10 U/s needs 90 s; the 10 s deadline must fire first.
        rdbms.submit(SyntheticJob("slow", 900, deadline=10.0))
        rdbms.run_to_completion(max_time=200.0)
        record = rdbms.record("slow")
        assert record.status == "aborted"
        assert record.trace.aborted_at == pytest.approx(10.0)
        kinds = [f.kind for f in record.trace.fault_events]
        assert "deadline" in kinds

    def test_finishing_exactly_at_deadline_counts_as_finished(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        # 100 U at 10 U/s finishes at t=10.0, the deadline itself.
        rdbms.submit(SyntheticJob("q", 100, deadline=10.0))
        rdbms.run_to_completion(max_time=100.0)
        record = rdbms.record("q")
        assert record.status == "finished"
        assert record.trace.finished_at == pytest.approx(10.0)

    def test_comfortable_deadline_is_invisible(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100, deadline=1000.0))
        rdbms.run_to_completion(max_time=2000.0)
        record = rdbms.record("q")
        assert record.status == "finished"
        assert record.trace.finished_at == pytest.approx(10.0)

    def test_timeshared_queries_each_respect_their_deadline(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("a", 100, deadline=15.0))
        rdbms.submit(SyntheticJob("b", 100, deadline=100.0))
        rdbms.run_to_completion(max_time=500.0)
        # Timeshared 50/50: "a" would finish at 20 s > its 15 s deadline;
        # "b" inherits the whole machine afterwards and finishes fine.
        assert rdbms.record("a").status == "aborted"
        assert rdbms.record("a").trace.aborted_at == pytest.approx(15.0)
        assert rdbms.record("b").status == "finished"

    def test_deadline_abort_is_not_retried(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("slow", 900, deadline=10.0))
        failures = []
        rdbms.on_failure.append(lambda *event: failures.append(event))
        rdbms.run_to_completion(max_time=200.0)
        assert rdbms.record("slow").status == "aborted"
        assert rdbms.record("slow").attempts == 1
        # An abort is not a failure: nothing that fails queries over hears
        # of it.
        assert failures == []


class TestDeadlineSurvivesRetry:
    def test_resubmission_does_not_reset_the_deadline(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        # Needs 30 s of work; crashes at t=5; deadline at t=20 holds even
        # though the retry starts a fresh attempt at t=6.
        rdbms.submit(SyntheticJob("q", 300, deadline=20.0))
        crash_and_resubmit(
            rdbms, 5.0, 6.0, SyntheticJob("q", 300, deadline=20.0)
        )
        rdbms.run_to_completion(max_time=200.0)
        record = rdbms.record("q")
        assert record.attempts == 2
        assert record.deadline_at == pytest.approx(20.0)
        assert record.status == "aborted"
        assert record.trace.aborted_at == pytest.approx(20.0)

    def test_checkpointed_retry_can_beat_the_deadline(self):
        # Same crash, but work-preserving recovery keeps 40 of the 50 U
        # done, so the query finishes before its deadline instead.
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100, deadline=13.0))
        crash_and_resubmit(
            rdbms, 5.0, 6.0,
            SyntheticJob("q", 100, initial_done=40.0, deadline=13.0),
        )
        rdbms.run_to_completion(max_time=200.0)
        record = rdbms.record("q")
        assert record.status == "finished"
        # t=5 crash + 1 s backoff + (100 - 40 preserved) U / 10 U/s = 12 s.
        assert record.trace.finished_at == pytest.approx(12.0)


class TestSetDeadlineApi:
    def test_set_and_clear(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 900))
        rdbms.set_deadline("q", 10.0)
        assert rdbms.record("q").deadline_at == 10.0
        rdbms.set_deadline("q", None)
        rdbms.run_to_completion(max_time=200.0)
        assert rdbms.record("q").status == "finished"

    def test_mid_run_deadline_applies(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 900))
        rdbms.run_until(5.0)
        rdbms.set_deadline("q", 12.0)
        rdbms.run_to_completion(max_time=200.0)
        record = rdbms.record("q")
        assert record.status == "aborted"
        assert record.trace.aborted_at == pytest.approx(12.0)

    def test_rejects_past_deadline(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 900))
        rdbms.run_until(5.0)
        with pytest.raises(ValueError):
            rdbms.set_deadline("q", 2.0)

    def test_rejects_terminal_query(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 10))
        rdbms.run_to_completion(max_time=100.0)
        with pytest.raises(ValueError):
            rdbms.set_deadline("q", 50.0)


class TestDeadlineScanMemo:
    """The memoized earliest-deadline value must track every mutation.

    ``_next_deadline_time`` is consulted on every analytic jump; PR 5
    memoizes the O(records) scan and invalidates on the mutations that
    can move the minimum.  A stale-low value pins the clock, a
    stale-high one overshoots a live deadline -- so the memo must equal
    a brute-force recomputation after any state change.
    """

    @staticmethod
    def _brute_force(rdbms):
        import math

        return min(
            (
                r.deadline_at
                for r in rdbms._records.values()
                if r.deadline_at is not None and not r.terminal
            ),
            default=math.inf,
        )

    def _check(self, rdbms):
        assert rdbms._next_deadline_time() == self._brute_force(rdbms)

    def test_memo_tracks_mutations(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        self._check(rdbms)

        rdbms.submit(SyntheticJob("a", 500, deadline=30.0))
        self._check(rdbms)
        rdbms.submit(SyntheticJob("b", 500, deadline=15.0))
        self._check(rdbms)
        rdbms.submit(SyntheticJob("c", 40))  # no deadline
        self._check(rdbms)

        rdbms.set_deadline("c", 8.0)  # new minimum
        self._check(rdbms)
        rdbms.set_deadline("c", None)  # cleared again
        self._check(rdbms)

        rdbms.abort("b", reason="test")  # old minimum leaves the pool
        self._check(rdbms)

        rdbms.run_until(4.0)
        self._check(rdbms)

        rdbms.resubmit(SyntheticJob("b", 500, deadline=25.0))
        self._check(rdbms)

        rdbms.run_to_completion(max_time=200.0)
        self._check(rdbms)
        assert rdbms._next_deadline_time() == float("inf")

    def test_memo_survives_deadline_fire(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("slow", 900, deadline=10.0))
        rdbms.submit(SyntheticJob("ok", 30, deadline=80.0))
        rdbms.run_until(11.0)  # "slow" aborted at t=10 by its deadline
        assert rdbms.record("slow").status == "aborted"
        self._check(rdbms)

    def test_memoized_run_matches_unmemoized_semantics(self):
        """Identical abort/finish times with many deadline queries."""
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        for i in range(8):
            rdbms.submit(
                SyntheticJob(f"q{i}", 120 + 40 * i, deadline=9.0 + 4.0 * i)
            )
        rdbms.run_to_completion(max_time=500.0)
        statuses = {q: rdbms.record(q).status for q in
                    (f"q{i}" for i in range(8))}
        # Earliest-deadline queries cannot all make it at 10 U/s shared.
        assert "aborted" in statuses.values()
        for i in range(8):
            rec = rdbms.record(f"q{i}")
            if rec.status == "aborted":
                assert rec.trace.aborted_at == pytest.approx(9.0 + 4.0 * i)


class TestBlockDrainInterplay:
    """block(admit_replacement=True) x drain() x deadlines (overload PR).

    A drain means "start nothing new": blocking a victim during a drain
    must not backfill its slot from the queue, and a blocked query's
    deadline keeps ticking -- parking a query never parks its SLA.
    """

    def test_replacement_admitted_during_drain_is_rejected(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=1)
        rdbms.submit(SyntheticJob("victim", 100))
        rdbms.submit(SyntheticJob("waiter", 100))
        assert rdbms.record("waiter").status == "queued"
        rdbms.drain()
        rdbms.block("victim", admit_replacement=True)
        assert rdbms.record("victim").status == "blocked"
        # The drain refused the backfill: the slot stays empty.
        assert rdbms.record("waiter").status == "queued"
        assert rdbms.running == ()

    def test_replacement_admitted_when_not_draining(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=1)
        rdbms.submit(SyntheticJob("victim", 100))
        rdbms.submit(SyntheticJob("waiter", 100))
        rdbms.block("victim", admit_replacement=True)
        assert rdbms.record("waiter").status == "running"

    def test_drain_lift_after_block_backfills_on_next_admit(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=1)
        rdbms.submit(SyntheticJob("victim", 100))
        rdbms.submit(SyntheticJob("waiter", 50))
        rdbms.drain()
        rdbms.block("victim", admit_replacement=True)
        rdbms.drain(False)
        rdbms.unblock("victim")
        rdbms.run_to_completion()
        assert rdbms.record("waiter").status == "finished"
        assert rdbms.record("victim").status == "finished"

    def test_blocked_query_deadline_still_fires(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("parked", 900, deadline=10.0))
        rdbms.submit(SyntheticJob("other", 500))
        rdbms.run_until(2.0)
        rdbms.block("parked")
        rdbms.run_until(15.0)
        rec = rdbms.record("parked")
        assert rec.status == "aborted"
        assert rec.trace.aborted_at == pytest.approx(10.0)
        assert "deadline" in [f.kind for f in rec.trace.fault_events]

    def test_blocked_query_deadline_fires_even_while_draining(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=1)
        rdbms.submit(SyntheticJob("parked", 900, deadline=10.0))
        rdbms.submit(SyntheticJob("waiter", 500))
        rdbms.run_until(2.0)
        rdbms.drain()
        rdbms.block("parked", admit_replacement=True)
        assert rdbms.record("waiter").status == "queued"
        rdbms.run_until(15.0)
        rec = rdbms.record("parked")
        assert rec.status == "aborted"
        assert rec.trace.aborted_at == pytest.approx(10.0)
