"""Tests for the scalability harness and the RDBMS shared schedule.

The benchmarks in ``benchmarks/test_bench_scale_concurrency.py`` assert
the *performance* claims at full size; these tests pin the *correctness*
machinery at small sizes: the harness verifies what it claims to verify,
the simulator's shared schedule stays consistent with the standard-case
oracle across every workload-management action, and all fallback paths
engage when the configuration leaves the supported regime.
"""

import json
import math

import pytest

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.standard_case import standard_case
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS, make_synthetic_workload
from repro.sim.scale import ScaleReport, merge_bench_json, run_scale
from repro.sim.scheduler import ThrashingModel


def _oracle(rdbms):
    snaps = [j.snapshot() for j in rdbms.running]
    return standard_case(
        snaps, rdbms.processing_rate, include_stages=False
    ).remaining_times


def assert_matches_oracle(rdbms, context=""):
    expected = _oracle(rdbms)
    got = rdbms.remaining_times()
    assert set(got) == set(expected), context
    for qid, want in expected.items():
        assert math.isclose(got[qid], want, rel_tol=1e-9, abs_tol=1e-9), (
            f"{context}: {qid} shared={got[qid]!r} oracle={want!r}"
        )
        assert math.isclose(
            rdbms.remaining_time_of(qid), want, rel_tol=1e-9, abs_tol=1e-9
        ), context


class TestRunScale:
    def test_small_sweep_is_well_formed(self):
        report = run_scale(sizes=(20, 40), rounds=2, sample=5)
        assert isinstance(report, ScaleReport)
        assert report.sizes == (20, 40)
        assert [p.n for p in report.points] == [20, 40]
        for point in report.points:
            assert point.rounds == 2
            assert point.sampled_queries == 5
            assert point.extrapolated is True
            assert point.incremental_seconds > 0
            assert (
                point.per_query_seconds_estimated
                >= point.per_query_seconds_measured
            )
            assert point.speedup_vs_per_query > 0
        # The headline correctness claim: identical estimates.
        assert report.max_rel_diff <= 1e-9

    def test_sample_covering_everything_is_not_extrapolated(self):
        report = run_scale(sizes=(10,), rounds=1, sample=1000)
        point = report.point(10)
        assert point.extrapolated is False
        assert point.sampled_queries == 10
        assert (
            point.per_query_seconds_estimated
            == pytest.approx(point.per_query_seconds_measured)
        )

    def test_as_dict_round_trips_through_json(self):
        report = run_scale(sizes=(15,), rounds=1, sample=4)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["sizes"] == [15]
        assert data["points"][0]["n"] == 15
        assert data["points"][0]["max_rel_diff"] <= 1e-9

    def test_point_lookup_and_validation(self):
        report = run_scale(sizes=(12,), rounds=1, sample=3)
        assert report.point(12).n == 12
        with pytest.raises(KeyError):
            report.point(999)
        with pytest.raises(ValueError):
            run_scale(sizes=())
        with pytest.raises(ValueError):
            run_scale(sizes=(0,))
        with pytest.raises(ValueError):
            run_scale(sizes=(10,), rounds=0)
        with pytest.raises(ValueError):
            run_scale(sizes=(10,), sample=0)


class TestMergeBenchJson:
    def test_sections_merge_order_independently(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        merge_bench_json(path, "scale", {"a": 1})
        merge_bench_json(path, "complexity", {"b": 2})
        merge_bench_json(path, "scale", {"a": 3})
        data = json.loads(path.read_text())
        assert data == {"scale": {"a": 3}, "complexity": {"b": 2}}

    def test_corrupt_existing_file_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text("not json {")
        data = merge_bench_json(path, "scale", {"ok": True})
        assert data == {"scale": {"ok": True}}
        path.write_text(json.dumps([1, 2, 3]))
        data = merge_bench_json(path, "scale", {"ok": True})
        assert data == {"scale": {"ok": True}}

    def test_write_is_atomic_on_failure(self, tmp_path):
        # Regression: a crash mid-write used to leave a truncated file.
        # The merge now goes through a temp file + os.replace, so a failed
        # serialisation must leave the previous contents untouched and no
        # temp droppings behind.
        path = tmp_path / "BENCH_scale.json"
        merge_bench_json(path, "scale", {"keep": 1})
        before = path.read_text()
        with pytest.raises(TypeError):
            merge_bench_json(path, "scale", {"bad": object()})
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_no_temp_files_left_on_success(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        merge_bench_json(path, "scale", {"a": 1})
        merge_bench_json(path, "scale", {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestSharedScheduleIntegration:
    def _rdbms(self, n=12, mpl=None, rate=2.0):
        rdbms = SimulatedRDBMS(processing_rate=rate, multiprogramming_limit=mpl)
        jobs = make_synthetic_workload(
            [5.0 + 7.0 * (i % 4) for i in range(n)],
            priorities=[i % 3 for i in range(n)],
        )
        for job in jobs:
            rdbms.submit(job)
        return rdbms

    def test_matches_oracle_and_survives_steps(self):
        rdbms = self._rdbms()
        assert rdbms.shared_schedule_supported
        assert_matches_oracle(rdbms, "initial")
        assert rdbms.shared_schedule() is not None
        for k in range(5):
            rdbms.run_until(rdbms.clock + 1.5)
            assert_matches_oracle(rdbms, f"after step {k}")
        # Maintained, not rebuilt: the same object is still serving.
        assert rdbms._shared_schedule is not None

    def test_matches_pi_estimates(self):
        rdbms = self._rdbms()
        rdbms.run_until(2.0)
        estimate = MultiQueryProgressIndicator().estimate(rdbms.snapshot())
        shared = rdbms.remaining_times()
        for qid, want in estimate.remaining_seconds.items():
            assert math.isclose(shared[qid], want, rel_tol=1e-9, abs_tol=1e-9)

    def test_block_unblock_and_priority_changes(self):
        rdbms = self._rdbms()
        rdbms.remaining_times()  # build the schedule
        victim = rdbms.running[0].query_id
        rdbms.block(victim)
        assert victim not in rdbms.remaining_times()
        assert_matches_oracle(rdbms, "after block")
        with pytest.raises(ValueError, match="not running"):
            rdbms.remaining_time_of(victim)
        rdbms.unblock(victim)
        assert_matches_oracle(rdbms, "after unblock")
        rdbms.set_priority(rdbms.running[2].query_id, 4)
        assert_matches_oracle(rdbms, "after promotion")
        rdbms.set_priority(rdbms.running[3].query_id, -3)
        assert_matches_oracle(rdbms, "after demotion")

    def test_abort_fail_and_late_arrivals(self):
        rdbms = self._rdbms(mpl=6)
        rdbms.remaining_times()
        rdbms.abort(rdbms.running[1].query_id)
        assert_matches_oracle(rdbms, "after abort (queue refilled)")
        rdbms.fail(rdbms.running[0].query_id, "injected")
        assert_matches_oracle(rdbms, "after fail")
        rdbms.submit(SyntheticJob("late", 9.0, priority=1))
        assert_matches_oracle(rdbms, "after late submit")
        rdbms.run_to_completion()
        assert rdbms.remaining_times() == {}

    def test_finish_reconciliation_keeps_schedule_live(self):
        rdbms = self._rdbms(n=6)
        rdbms.remaining_times()
        rdbms.run_to_completion()
        # Every completion was popped in agreement with the simulator:
        # the schedule was never invalidated, just drained.
        assert rdbms._shared_schedule is not None
        assert len(rdbms._shared_schedule) == 0

    def test_unknown_and_non_running_queries_raise(self):
        rdbms = self._rdbms(n=4, mpl=2)
        with pytest.raises(KeyError, match="unknown query"):
            rdbms.remaining_time_of("ghost")
        queued = rdbms.queued[0].query_id
        with pytest.raises(ValueError, match="queued"):
            rdbms.remaining_time_of(queued)

    def test_unsupported_speed_model_falls_back(self):
        rdbms = SimulatedRDBMS(speed_model=ThrashingModel())
        for job in make_synthetic_workload([5.0, 7.0, 11.0]):
            rdbms.submit(job)
        assert not rdbms.shared_schedule_supported
        assert rdbms.shared_schedule() is None
        # The fallback still answers (with the standard-case model).
        times = rdbms.remaining_times()
        assert set(times) == {"Q1", "Q2", "Q3"}
        assert rdbms.remaining_time_of("Q1") == times["Q1"]

    def test_speed_model_swap_invalidates(self):
        rdbms = self._rdbms(n=4)
        assert rdbms.shared_schedule() is not None
        rdbms.speed_model = ThrashingModel()
        rdbms.run_until(1.0)
        assert rdbms.shared_schedule() is None
        assert set(rdbms.remaining_times()) == {
            j.query_id for j in rdbms.running
        }

    def test_corruption_does_not_reach_shared_schedule(self):
        rdbms = self._rdbms(n=4)
        rdbms.remaining_times()
        rdbms.corrupt_estimates(float("nan"))
        # snapshot-based PIs now refuse...
        with pytest.raises(ValueError):
            MultiQueryProgressIndicator().estimate(rdbms.snapshot())
        # ...but the engine-internal schedule still serves exact answers.
        assert_matches_oracle_uncorrupted(rdbms)


def assert_matches_oracle_uncorrupted(rdbms):
    snaps = [j.snapshot() for j in rdbms.running]
    expected = standard_case(
        snaps, rdbms.processing_rate, include_stages=False
    ).remaining_times
    got = rdbms.remaining_times()
    for qid, want in expected.items():
        assert math.isclose(got[qid], want, rel_tol=1e-9, abs_tol=1e-9)
