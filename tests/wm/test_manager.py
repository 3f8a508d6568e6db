"""Tests for the adaptive maintenance manager."""

import math

import pytest

from repro.sim.jobs import CostNoiseJob, SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.manager import AdaptiveMaintenanceManager, run_adaptive_maintenance


class StatsGoBadJob(SyntheticJob):
    """A synthetic job whose estimate turns NaN once ``bad`` is set.

    It executes normally (the simulator times it off the true remaining
    cost); only what a PI reads through its snapshot goes non-finite.
    """

    bad = False

    def estimated_remaining_cost(self) -> float:
        return math.nan if self.bad else super().estimated_remaining_cost()

    def true_remaining_cost(self) -> float:
        return max(self.total_cost - self.completed_work, 0.0)


def build_rdbms(costs, noise=None):
    db = SimulatedRDBMS(processing_rate=1.0)
    for i, c in enumerate(costs):
        job = SyntheticJob(f"Q{i + 1}", c)
        if noise:
            job = CostNoiseJob(job, noise[i])
        db.submit(job)
    return db


class TestAdaptiveManager:
    def test_generous_deadline_aborts_nothing(self):
        db = build_rdbms([10, 20, 30])
        manager = run_adaptive_maintenance(db, deadline=60.0)
        assert manager.total_aborted == []
        assert all(r.status == "finished" for r in db.records().values())

    def test_tight_deadline_plans_upfront(self):
        db = build_rdbms([10, 20, 30])
        manager = run_adaptive_maintenance(db, deadline=30.0)
        # Initial plan must abort enough to drain 30 U by t=30.
        assert manager.events[0].aborted != ()
        assert db.quiescent() or not db.running

    def test_drains_by_deadline_under_accurate_estimates(self):
        db = build_rdbms([15, 25, 40, 60])
        manager = run_adaptive_maintenance(db, deadline=70.0)
        finished = [
            r for r in db.records().values() if r.status == "finished"
        ]
        assert finished, "some queries should finish"
        # Nothing left running past the deadline.
        assert not db.running and not db.queued
        # With exact estimates, no late (O3) aborts are needed.
        assert manager.finish() == ()

    def test_revision_catches_underestimated_costs(self):
        """Jobs report half their true remaining cost: the initial plan is
        too optimistic, and later revisions must abort more queries."""
        costs = [40.0, 50.0, 60.0, 70.0]
        db = build_rdbms(costs, noise=[0.5] * 4)
        manager = run_adaptive_maintenance(db, deadline=60.0, check_interval=2.0)
        # The initial (deceived) plan kept too much work; revisions fired.
        later_aborts = [e for e in manager.events[1:] if e.aborted]
        assert later_aborts, "expected at least one corrective revision"
        assert manager.revision_count >= 1

    def test_drain_engaged_and_arrivals_rejected(self):
        db = build_rdbms([10])
        manager = AdaptiveMaintenanceManager(db, deadline=100.0)
        manager.start()
        with pytest.raises(RuntimeError):
            db.submit(SyntheticJob("late", 5))

    def test_past_deadline_rejected(self):
        db = build_rdbms([10])
        db.run_until(50.0)
        with pytest.raises(ValueError):
            run_adaptive_maintenance(db, deadline=10.0)

    def test_degraded_snapshot_carries_back_per_query(self):
        # One query's stats go non-finite mid-run: revisions keep
        # planning it from its last finite observation and record it as
        # degraded, instead of abandoning the whole revision.
        db = build_rdbms([10, 20])
        q3 = StatsGoBadJob("Q3", 30)
        db.submit(q3)
        manager = AdaptiveMaintenanceManager(
            db, deadline=200.0, check_interval=2.0
        )
        manager.start()
        db.run_until(3.0)
        q3.bad = True
        db.run_to_completion(max_time=500.0)
        manager.finish()
        degraded_events = [e for e in manager.events if e.degraded]
        assert degraded_events
        assert all(e.degraded == ("Q3",) for e in degraded_events)
        # The generous deadline means the degraded query still finishes.
        assert db.record("Q3").status == "finished"
        assert manager.total_aborted == []

    def test_event_log_records_projections(self):
        db = build_rdbms([10, 20])
        manager = run_adaptive_maintenance(db, deadline=30.0, check_interval=5.0)
        assert manager.events[0].time == 0.0
        assert manager.events[0].projected_drain <= 30.0 + 1e-6
        times = [e.time for e in manager.events]
        assert times == sorted(times)
