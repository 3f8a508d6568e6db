"""Tests for the simulated RDBMS event loop and actions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.standard_case import standard_case
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS, make_synthetic_workload


class TestBasicExecution:
    def test_single_job(self):
        db = SimulatedRDBMS(processing_rate=2.0)
        db.submit(SyntheticJob("a", 10))
        db.run_to_completion()
        assert db.clock == pytest.approx(5.0)
        assert db.record("a").status == "finished"

    def test_matches_standard_case(self):
        jobs = make_synthetic_workload([10, 20, 30, 40])
        db = SimulatedRDBMS(processing_rate=1.0)
        for j in jobs:
            db.submit(j)
        db.run_to_completion()
        expected = standard_case([j.snapshot() for j in jobs], 1.0)
        for qid, t in expected.remaining_times.items():
            pass
        finishes = {q: db.traces[q].finished_at for q in ("Q1", "Q2", "Q3", "Q4")}
        assert finishes == pytest.approx(
            {"Q1": 40.0, "Q2": 70.0, "Q3": 90.0, "Q4": 100.0}
        )

    def test_weighted_jobs(self):
        db = SimulatedRDBMS(processing_rate=3.0)
        db.submit(SyntheticJob("heavy", 10, weight=2.0))
        db.submit(SyntheticJob("light", 10, weight=1.0))
        db.run_to_completion()
        assert db.traces["heavy"].finished_at == pytest.approx(5.0)
        assert db.traces["light"].finished_at == pytest.approx(5 + 5 / 3)

    def test_run_until_partial_progress(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        job = SyntheticJob("a", 10)
        db.submit(job)
        db.run_until(4.0)
        assert db.clock == pytest.approx(4.0)
        assert job.completed_work == pytest.approx(4.0)
        assert db.record("a").status == "running"

    def test_run_backwards_rejected(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 1))
        db.run_until(5.0)
        with pytest.raises(ValueError):
            db.run_until(1.0)

    def test_duplicate_id_rejected(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 1))
        with pytest.raises(ValueError):
            db.submit(SyntheticJob("a", 2))

    def test_zero_cost_job(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("zero", 0))
        db.run_to_completion()
        assert db.record("zero").status == "finished"
        assert db.traces["zero"].finished_at == pytest.approx(0.0)

    def test_max_time_guard(self):
        db = SimulatedRDBMS(processing_rate=1e-6)
        db.submit(SyntheticJob("a", 1e9))
        with pytest.raises(RuntimeError):
            db.run_to_completion(max_time=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedRDBMS(processing_rate=0)
        with pytest.raises(ValueError):
            SimulatedRDBMS(multiprogramming_limit=0)
        with pytest.raises(ValueError):
            SimulatedRDBMS(quantum=0)


class TestAdmissionQueue:
    def test_mpl_enforced(self):
        jobs = make_synthetic_workload([50, 10, 20])
        db = SimulatedRDBMS(processing_rate=1.0, multiprogramming_limit=2)
        for j in jobs:
            db.submit(j)
        assert len(db.running) == 2
        assert len(db.queued) == 1
        db.run_to_completion()
        assert db.traces["Q2"].finished_at == pytest.approx(20.0)
        assert db.traces["Q3"].started_at == pytest.approx(20.0)
        assert db.traces["Q3"].finished_at == pytest.approx(60.0)
        assert db.traces["Q1"].finished_at == pytest.approx(80.0)
        assert db.traces["Q3"].queue_wait == pytest.approx(20.0)

    def test_fifo_order(self):
        db = SimulatedRDBMS(multiprogramming_limit=1)
        for j in make_synthetic_workload([5, 5, 5]):
            db.submit(j)
        db.run_to_completion()
        starts = [db.traces[q].started_at for q in ("Q1", "Q2", "Q3")]
        assert starts == sorted(starts)


class TestArrivals:
    def test_scheduled_arrivals(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        db.submit(SyntheticJob("a", 20))
        sched = ArrivalSchedule()
        sched.add(10.0, lambda: SyntheticJob("late", 5))
        db.schedule(sched)
        db.run_to_completion()
        assert db.traces["late"].submitted_at == pytest.approx(10.0)
        assert db.traces["late"].finished_at == pytest.approx(20.0)
        assert db.traces["a"].finished_at == pytest.approx(25.0)

    def test_drain_rejects_scheduled_arrivals(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        db.submit(SyntheticJob("a", 20))
        sched = ArrivalSchedule()
        sched.add(5.0, lambda: SyntheticJob("late", 5))
        db.schedule(sched)
        db.drain(True)
        db.run_to_completion()
        assert "late" not in db.traces.queries
        assert db.traces["a"].finished_at == pytest.approx(20.0)

    def test_drain_rejects_direct_submission(self):
        db = SimulatedRDBMS()
        db.drain(True)
        with pytest.raises(RuntimeError):
            db.submit(SyntheticJob("a", 1))
        db.drain(False)
        db.submit(SyntheticJob("a", 1))

    def test_arrival_callback(self):
        seen = []
        db = SimulatedRDBMS()
        db.on_arrival.append(lambda t, qid: seen.append((t, qid)))
        db.submit(SyntheticJob("a", 5))
        assert seen == [(0.0, "a")]

    def test_finish_callback(self):
        seen = []
        db = SimulatedRDBMS()
        db.on_finish.append(lambda t, qid: seen.append((t, qid)))
        db.submit(SyntheticJob("a", 5))
        db.run_to_completion()
        assert seen == [(5.0, "a")]


class TestActions:
    def test_abort_running(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        db.run_until(2.0)
        db.abort("Q1")
        db.run_to_completion()
        assert db.record("Q1").status == "aborted"
        assert db.traces["Q1"].aborted_at == pytest.approx(2.0)
        # Q2 had 9 left at t=2, then runs alone.
        assert db.traces["Q2"].finished_at == pytest.approx(11.0)

    def test_abort_queued(self):
        db = SimulatedRDBMS(multiprogramming_limit=1)
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        db.abort("Q2")
        db.run_to_completion()
        assert db.record("Q2").status == "aborted"
        assert db.traces["Q1"].finished_at == pytest.approx(10.0)

    def test_double_abort_rejected(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 5))
        db.abort("a")
        with pytest.raises(ValueError):
            db.abort("a")

    def test_abort_frees_mpl_slot(self):
        db = SimulatedRDBMS(multiprogramming_limit=1)
        for j in make_synthetic_workload([100, 10]):
            db.submit(j)
        db.abort("Q1")
        assert db.record("Q2").status == "running"

    def test_block_and_unblock(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        db.block("Q2")
        assert db.record("Q2").status == "blocked"
        assert len(db.blocked) == 1
        db.run_until(10.0)
        # Q1 ran alone.
        assert db.record("Q1").status == "finished"
        assert db.traces["Q1"].finished_at == pytest.approx(10.0)
        db.unblock("Q2")
        db.run_to_completion()
        assert db.traces["Q2"].finished_at == pytest.approx(20.0)

    def test_blocked_jobs_do_not_stall_completion(self):
        db = SimulatedRDBMS()
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        db.block("Q2")
        db.run_to_completion()  # must terminate with Q2 still blocked
        assert db.record("Q2").status == "blocked"

    def test_block_requires_running(self):
        db = SimulatedRDBMS(multiprogramming_limit=1)
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        with pytest.raises(ValueError):
            db.block("Q2")  # queued, not running

    def test_unblock_requires_blocked(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 5))
        with pytest.raises(ValueError):
            db.unblock("a")

    def test_set_priority_changes_weight(self):
        db = SimulatedRDBMS(processing_rate=3.0)
        for j in make_synthetic_workload([10, 10]):
            db.submit(j)
        db.set_priority("Q1", 1)  # weight 2
        db.run_to_completion()
        assert db.traces["Q1"].finished_at == pytest.approx(5.0)

    def test_set_priority_custom_weight(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 5))
        db.set_priority("a", 0, weight=7.5)
        assert db.record("a").job.weight == 7.5
        with pytest.raises(ValueError):
            db.set_priority("a", 0, weight=0.0)

    @pytest.mark.parametrize("weight", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejected_weight_changes_nothing(self, weight):
        db = SimulatedRDBMS(processing_rate=2.0)
        for j in make_synthetic_workload([10, 20, 30], prefix="q"):
            db.submit(j)
        job = db.record("q1").job
        before = (job.priority, job.weight)
        with pytest.raises(ValueError, match="weight"):
            db.set_priority("q1", 3, weight=weight)
        assert (job.priority, job.weight) == before
        db.run_until(4.0)
        expected = standard_case(
            [j.snapshot() for j in db.running], db.processing_rate
        ).remaining_times
        served = db.remaining_times()
        assert set(served) == set(expected)
        for qid, want in expected.items():
            assert served[qid] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_unknown_query(self):
        db = SimulatedRDBMS()
        with pytest.raises(KeyError):
            db.record("nope")
        with pytest.raises(KeyError):
            db.abort("nope")


class TestSnapshotsAndSampling:
    def test_snapshot_contents(self):
        db = SimulatedRDBMS(processing_rate=2.0, multiprogramming_limit=2)
        for j in make_synthetic_workload([10, 20, 30]):
            db.submit(j)
        snap = db.snapshot()
        assert len(snap.running) == 2
        assert len(snap.queued) == 1
        assert snap.processing_rate == 2.0
        assert snap.multiprogramming_limit == 2

    def test_sampler_fires_on_schedule(self):
        times = []
        db = SimulatedRDBMS(processing_rate=1.0)
        db.submit(SyntheticJob("a", 10))
        db.add_sampler(2.0, lambda r: times.append(r.clock))
        db.run_to_completion()
        assert times == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0])

    def test_sampler_validation(self):
        db = SimulatedRDBMS()
        with pytest.raises(ValueError):
            db.add_sampler(0.0, lambda r: None)

    def test_trace_records_speed(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        for j in make_synthetic_workload([10, 30]):
            db.submit(j)
        db.add_sampler(1.0, lambda r: None)
        db.run_to_completion()
        speed = db.traces["Q2"].speed
        # Shared first (0.5), then alone (1.0).
        assert speed.at(5.0) == pytest.approx(0.5)
        assert speed.at(25.0) == pytest.approx(1.0)


class TestConservation:
    @given(
        costs=st.lists(
            st.floats(min_value=0.5, max_value=200.0), min_size=1, max_size=8
        ),
        rate=st.floats(min_value=0.5, max_value=5.0),
        mpl=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_drain_time_equals_total_work_over_rate(self, costs, rate, mpl):
        db = SimulatedRDBMS(processing_rate=rate, multiprogramming_limit=mpl)
        for j in make_synthetic_workload(costs):
            db.submit(j)
        db.run_to_completion()
        assert db.clock == pytest.approx(sum(costs) / rate, rel=1e-6)
        for qid in db.records():
            assert db.record(qid).status == "finished"

    @given(
        costs=st.lists(
            st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_simulation_matches_analytic_finish_times(self, costs):
        jobs = make_synthetic_workload(costs)
        expected = standard_case([j.snapshot() for j in jobs], 1.0).remaining_times
        db = SimulatedRDBMS(processing_rate=1.0)
        for j in jobs:
            db.submit(j)
        db.run_to_completion()
        for qid, t in expected.items():
            assert db.traces[qid].finished_at == pytest.approx(t, rel=1e-6)


class TestMakeSyntheticWorkload:
    def test_basic(self):
        jobs = make_synthetic_workload([1, 2], priorities=[0, 1], prefix="J")
        assert [j.query_id for j in jobs] == ["J1", "J2"]
        assert jobs[1].weight == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_synthetic_workload([1, 2], priorities=[0])
        with pytest.raises(ValueError):
            make_synthetic_workload([1, 2], initial_done=[0.0])
