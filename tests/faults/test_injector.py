"""Tests for the fault injector: each fault shape against the simulator."""

import math

import pytest

from repro.faults.injector import RESOLUTION, FaultInjector
from repro.faults.plan import (
    Brownout,
    FaultPlan,
    QueryCrash,
    QueryStall,
    StatsCorruption,
)
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.sim.scheduler import ScaledSpeedModel


def make_rdbms(**costs):
    rdbms = SimulatedRDBMS(processing_rate=10.0)
    for qid, cost in costs.items():
        rdbms.submit(SyntheticJob(qid, cost))
    return rdbms


class TestBrownoutInjection:
    def test_brownout_delays_completion_exactly(self):
        # cost 100 at 10 U/s = 10s nominal; half speed over [2, 6] loses
        # 20 U that take 2 extra seconds to make up: finish at 12s.
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(Brownout(start=2.0, duration=4.0, factor=0.5))
        )
        injector.arm()
        rdbms.run_to_completion()
        assert rdbms.traces["q"].finished_at == pytest.approx(12.0)

    def test_full_outage_stops_all_progress(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(Brownout(start=2.0, duration=3.0, factor=0.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        assert rdbms.traces["q"].finished_at == pytest.approx(13.0)

    def test_overlapping_brownouts_compose(self):
        # x0.5 over [2, 8] and x0.5 over [4, 6]: rate is x0.25 in [4, 6].
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms,
            FaultPlan.of(
                Brownout(start=2.0, duration=6.0, factor=0.5),
                Brownout(start=4.0, duration=2.0, factor=0.5),
            ),
        )
        injector.arm()
        rdbms.run_to_completion()
        # Work done: 2s full (20) + 2s half (10) + 2s quarter (5) + 2s half
        # (10) = 45 by t=8; remaining 55 at full rate = 5.5s more.
        assert rdbms.traces["q"].finished_at == pytest.approx(13.5)

    def test_begin_and_end_logged(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(Brownout(start=2.0, duration=4.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        kinds = [e.kind for e in injector.events]
        assert kinds == ["brownout-begin", "brownout-end"]
        assert [e.time for e in injector.events] == pytest.approx([2.0, 6.0])


class TestStallInjection:
    def test_stall_freezes_one_query(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryStall("q", at=2.0, duration=3.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        assert rdbms.traces["q"].finished_at == pytest.approx(13.0)

    def test_stalled_query_still_holds_its_share(self):
        rdbms = make_rdbms(a=100, b=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryStall("a", at=0.0, duration=100.0))
        )
        injector.arm()
        rdbms.run_until(25.0)
        # The stalled query keeps its execution slot, so its fair share is
        # held (wasted), not redistributed: b still runs at 5 U/s.
        assert rdbms.traces["b"].finished_at == pytest.approx(20.0)
        assert rdbms.record("a").job.completed_work == pytest.approx(0.0)

    def test_stall_recorded_in_trace(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryStall("q", at=2.0, duration=3.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        kinds = [f.kind for f in rdbms.traces["q"].fault_events]
        assert kinds == ["stall-begin", "stall-end"]

    def test_stall_on_finished_query_is_skipped(self):
        rdbms = make_rdbms(q=10)  # finishes at t=1
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryStall("q", at=5.0, duration=1.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        assert any(e.skipped for e in injector.events)
        assert rdbms.traces["q"].finished_at == pytest.approx(1.0)


class TestCrashInjection:
    def test_timed_crash_sets_failed_at_not_aborted_at(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryCrash("q", at_time=3.0, reason="boom"))
        )
        injector.arm()
        rdbms.run_to_completion()
        record = rdbms.record("q")
        assert record.status == "failed"
        assert record.trace.failed_at == pytest.approx(3.0)
        assert record.trace.aborted_at is None

    def test_fraction_crash_fires_near_threshold(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryCrash("q", at_fraction=0.5))
        )
        injector.arm()
        rdbms.run_to_completion()
        record = rdbms.record("q")
        assert record.status == "failed"
        # 50% of 100 U at 10 U/s is t=5; accurate to one resolution tick.
        assert record.job.completed_work == pytest.approx(
            50.0, abs=10 * RESOLUTION + 1e-6
        )
        assert record.job.completed_work >= 50.0 - 1e-9

    def test_crash_on_finished_query_is_skipped(self):
        rdbms = make_rdbms(q=10)
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        assert rdbms.record("q").status == "finished"
        crash_events = [e for e in injector.events if e.kind == "crash"]
        assert len(crash_events) == 1 and crash_events[0].skipped


class TestCorruptionInjection:
    def test_corruption_window_poisons_then_restores_snapshots(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms,
            FaultPlan.of(
                StatsCorruption(start=2.0, duration=3.0, factor=float("nan"))
            ),
        )
        injector.arm()
        rdbms.run_until(3.0)
        assert math.isnan(rdbms.snapshot().find("q").remaining_cost)
        rdbms.run_until(6.0)
        remaining = rdbms.snapshot().find("q").remaining_cost
        assert math.isfinite(remaining) and remaining == pytest.approx(40.0)

    def test_corruption_does_not_change_true_progress(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms,
            FaultPlan.of(StatsCorruption(start=0.0, duration=None, factor=100.0)),
        )
        injector.arm()
        rdbms.run_to_completion()
        assert rdbms.traces["q"].finished_at == pytest.approx(10.0)

    def test_query_targeted_corruption(self):
        rdbms = make_rdbms(a=100, b=100)
        injector = FaultInjector(
            rdbms,
            FaultPlan.of(
                StatsCorruption(
                    start=0.0, duration=None, factor=float("inf"), query_id="a"
                )
            ),
        )
        injector.arm()
        rdbms.run_until(1.0)
        snapshot = rdbms.snapshot()
        assert math.isinf(snapshot.find("a").remaining_cost)
        assert math.isfinite(snapshot.find("b").remaining_cost)


class TestInjectorMechanics:
    def test_arm_is_single_shot(self):
        rdbms = make_rdbms(q=10)
        injector = FaultInjector(rdbms, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_arm_wraps_speed_model_once(self):
        rdbms = make_rdbms(q=10)
        FaultInjector(rdbms, FaultPlan()).arm()
        assert isinstance(rdbms.speed_model, ScaledSpeedModel)
        overlay = rdbms.speed_model
        FaultInjector(rdbms, FaultPlan()).arm()
        assert rdbms.speed_model is overlay

    def test_timeline_is_sorted_and_formatted(self):
        rdbms = make_rdbms(q=100)
        injector = FaultInjector(
            rdbms,
            FaultPlan.of(
                Brownout(start=4.0, duration=1.0),
                QueryCrash("q", at_time=8.0),
            ),
        )
        injector.arm()
        rdbms.run_to_completion()
        lines = injector.timeline()
        assert len(lines) == 3
        assert "brownout-begin" in lines[0] and "crash" in lines[-1]


class TestBurstInjection:
    def test_burst_submits_n_jobs_at_time(self):
        from repro.faults.plan import ArrivalBurst

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        plan = FaultPlan.of(ArrivalBurst(at=5.0, n=4, cost=10.0))
        FaultInjector(rdbms, plan).arm()
        rdbms.run_until(4.9)
        assert not any(q.startswith("burst") for q in rdbms.records())
        rdbms.run_to_completion()
        ids = [q for q in rdbms.records() if q.startswith("burst")]
        assert sorted(ids) == ["burst0", "burst1", "burst2", "burst3"]
        for q in ids:
            rec = rdbms.record(q)
            assert rec.status == "finished"
            assert rec.trace.submitted_at == pytest.approx(5.0)

    def test_spread_burst_arrives_within_window(self):
        from repro.faults.plan import ArrivalBurst

        rdbms = SimulatedRDBMS(processing_rate=100.0)
        plan = FaultPlan.of(
            ArrivalBurst(at=5.0, n=6, cost=1.0, spread=3.0, seed=11)
        )
        FaultInjector(rdbms, plan).arm()
        rdbms.run_to_completion()
        arrivals = [
            rdbms.record(f"burst{i}").trace.submitted_at for i in range(6)
        ]
        assert all(5.0 <= t <= 8.0 for t in arrivals)
        assert arrivals == sorted(arrivals)  # index i = i-th earliest

    def test_burst_jobs_carry_priority_and_deadline(self):
        from repro.faults.plan import ArrivalBurst

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        plan = FaultPlan.of(
            ArrivalBurst(at=2.0, n=2, cost=10.0, priority=-1, deadline=50.0)
        )
        FaultInjector(rdbms, plan).arm()
        rdbms.run_until(2.1)
        rec = rdbms.record("burst0")
        assert rec.job.priority == -1
        assert rec.deadline_at == pytest.approx(52.0)

    def test_burst_begin_logged(self):
        from repro.faults.plan import ArrivalBurst

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        injector = FaultInjector(
            rdbms, FaultPlan.of(ArrivalBurst(at=1.0, n=3, cost=5.0))
        )
        injector.arm()
        rdbms.run_to_completion()
        kinds = [e.kind for e in injector.events]
        assert "burst-begin" in kinds

    def test_sql_burst_rejected_by_single_node_injector(self):
        from repro.faults.plan import ArrivalBurst

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        plan = FaultPlan.of(
            ArrivalBurst(at=1.0, n=3, sql="SELECT COUNT(*) FROM t")
        )
        with pytest.raises(ValueError, match="ClusterFaultInjector"):
            FaultInjector(rdbms, plan).arm()

    def test_burst_respects_attached_admission_controller(self):
        from repro.faults.plan import ArrivalBurst
        from repro.qos.admission import AdmissionController, AdmissionPolicy

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        gate = AdmissionController(
            rdbms, AdmissionPolicy(max_in_flight=2)
        ).attach()
        plan = FaultPlan.of(ArrivalBurst(at=1.0, n=6, cost=10.0))
        FaultInjector(rdbms, plan).arm()
        rdbms.run_to_completion()
        assert gate.counts()["defer"] > 0  # the gate actually engaged
        # Deferred arrivals were retried in; everything finished.
        for i in range(6):
            assert rdbms.record(f"burst{i}").status == "finished"
