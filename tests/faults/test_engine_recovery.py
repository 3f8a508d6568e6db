"""Work-preserving recovery for engine-backed queries under faults.

The acceptance scenario: a real SQL execution crashed at 50% of its work
resumes from its last checkpoint and preserves at least 80% of the
completed work -- and the engine-mode experiment keeps producing a
well-formed report when the crash plan runs underneath it.
"""

import random

import pytest

from repro.engine.database import Database
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, QueryCrash
from repro.faults.retry import RetryController, RetryPolicy
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.queries import engine_job
from repro.workload.tpcr import TpcrConfig, add_part_table, build_lineitem


def small_db(seed=7, parts=1, size=12):
    tpcr = TpcrConfig(scale=1 / 4000, seed=seed)
    rng = random.Random(seed)
    db = Database(page_capacity=tpcr.page_capacity)
    build_lineitem(db, tpcr, rng)
    for i in range(1, parts + 1):
        add_part_table(db, i, size, tpcr, rng)
    db.analyze()
    return db


def crash_run(db, interval, at_fraction=0.5, query="Q1", part=1):
    rdbms = SimulatedRDBMS(processing_rate=10.0)
    RetryController(rdbms, RetryPolicy(max_attempts=3, base_delay=1.0))
    FaultInjector(
        rdbms, FaultPlan.of(QueryCrash(query, at_fraction=at_fraction))
    ).arm()
    rdbms.submit(engine_job(db, query, part, checkpoint_interval=interval))
    rdbms.run_to_completion(max_time=2000.0)
    return rdbms.record(query)


class TestCrashResume:
    @pytest.fixture(scope="class")
    def db(self):
        return small_db()

    def test_acceptance_crash_at_half_preserves_80_percent(self, db):
        """The crash lands at half the work, and >= 80% of the crashed
        attempt's work survives it.

        The cadence is 10 U: up to one interval is lost by design, and at
        a crash point of ~67 U one 10-U interval stays under 20% of it.
        """
        plain = engine_job(db, "ref", 1)
        plain.execution.run_to_completion()
        record = crash_run(db, interval=10.0)
        assert record.status == "finished"
        assert record.attempts == 2
        trace = record.trace
        crashed_attempt_work = trace.preserved_work + trace.wasted_work
        # at_fraction reads the progress tracker's total, so the crash
        # point is only as right as the estimate.
        assert 0.45 <= crashed_attempt_work / plain.execution.work_done <= 0.60
        assert trace.preserved_work / crashed_attempt_work >= 0.8

    def test_resume_wastes_at_most_one_interval(self, db):
        record = crash_run(db, interval=25.0)
        assert record.attempts == 2
        assert 0.0 < record.trace.wasted_work <= 25.0

    def test_non_checkpointed_path_still_recovers(self, db):
        """Without checkpoints the retry restarts from scratch and still
        finishes -- the pre-existing behaviour must be intact."""
        record = crash_run(db, interval=None)
        assert record.status == "finished"
        assert record.attempts == 2
        assert record.trace.preserved_work == 0.0
        assert record.trace.wasted_work > 0.0

    def test_resumed_rows_match_unfaulted_run(self, db):
        plain = engine_job(db, "ref", 1)
        plain.execution.run_to_completion()
        record = crash_run(db, interval=25.0)
        assert record.job.execution.rows == plain.execution.rows

    def test_checkpointing_wastes_less_than_restarting(self, db):
        restart = crash_run(db, interval=None)
        resume = crash_run(db, interval=25.0)
        assert resume.trace.wasted_work < restart.trace.wasted_work


@pytest.mark.chaos
class TestChaosEngineRecovery:
    """Seeded crash storms over engine executions: invariants only."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_crash_fraction_preserves_work(self, seed):
        db = small_db(seed=7)
        rng = random.Random(seed)
        frac = rng.uniform(0.3, 0.9)
        record = crash_run(db, interval=20.0, at_fraction=frac)
        assert record.status == "finished"
        trace = record.trace
        assert trace.preserved_work >= 0.0
        assert trace.wasted_work >= 0.0
        # A resumed attempt never redoes more than one checkpoint interval
        # plus the pull that crossed the crash point.
        if record.attempts == 2 and trace.preserved_work > 0:
            assert trace.wasted_work <= 20.0 + record.job.completed_work * 0.25


@pytest.mark.chaos
class TestEngineExperimentUnderFaults:
    """The engine-mode experiment survives an injected crash plan."""

    def test_report_is_well_formed_under_crash_plan(self):
        from repro.experiments.engine_mode import EngineMCQConfig, run_engine_mcq

        config = EngineMCQConfig(
            n_queries=4, max_size=8, scale=1 / 8000, processing_rate=10.0,
            sample_interval=1.0, seed=5, checkpoint_interval=20.0,
        )
        plan = FaultPlan.of(
            QueryCrash("Q1", at_fraction=0.5),
            QueryCrash("Q3", at_fraction=0.4),
        )
        result = run_engine_mcq(
            config,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0),
        )
        # Well-formed: the focus query finished, estimates were recorded,
        # and every query ended with positive completed work.
        assert result.finish_time > 0
        assert result.estimates["multi-query"]
        assert result.estimates["single-query"]
        assert set(result.final_works) == {f"Q{i}" for i in range(1, 5)}
        assert all(w > 0 for w in result.final_works.values())
        assert result.mean_relative_error("multi-query") >= 0.0
