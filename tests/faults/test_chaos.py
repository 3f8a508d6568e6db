"""Chaos tests: randomized fault storms must never break the simulator.

The scripted test is the PR's acceptance scenario: one of every fault
shape -- a crash (retried), a brownout, a stall and corrupted statistics --
against a protected workload; every query must end terminal and the
watchdog must demonstrably fall back to its observed-work heuristic while
estimates are non-finite.

The randomized tests (marked ``chaos``) draw seeded fault plans and assert
only *invariants*: the run terminates, every query reaches a terminal
status, attempt counts respect the retry cap, and progress accounting
stays finite and non-negative.  Failures reproduce exactly from the seed.
"""

import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    Brownout,
    FaultPlan,
    QueryCrash,
    QueryStall,
    StatsCorruption,
    random_fault_plan,
)
from repro.faults.retry import RetryController, RetryPolicy
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.watchdog import RunawayQueryWatchdog

TERMINAL = ("finished", "aborted", "failed")


class TestScriptedAcceptance:
    """The issue's acceptance scenario, asserted end to end."""

    def build(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        costs = {"q1": 120.0, "q2": 80.0, "q3": 900.0, "q4": 60.0}
        for qid, cost in costs.items():
            rdbms.submit(SyntheticJob(qid, cost))
        plan = FaultPlan.of(
            Brownout(start=5.0, duration=10.0, factor=0.5),
            QueryCrash("q2", at_fraction=0.5),
            QueryStall("q1", at=8.0, duration=4.0),
            StatsCorruption(
                start=0.0, duration=None, factor=float("nan"), query_id="q3"
            ),
        )
        injector = FaultInjector(rdbms, plan)
        injector.arm()
        retries = RetryController(
            rdbms, RetryPolicy(max_attempts=3, base_delay=2.0)
        )
        watchdog = RunawayQueryWatchdog(rdbms, budget_seconds=60.0)
        watchdog.attach()
        return rdbms, costs, injector, retries, watchdog

    def test_every_query_reaches_a_terminal_status(self):
        rdbms, costs, _, _, _ = self.build()
        rdbms.run_to_completion(max_time=1000.0)
        for qid in costs:
            assert rdbms.record(qid).status in TERMINAL, qid
            assert rdbms.record(qid).terminal

    def test_crashed_query_recovers_via_retry(self):
        rdbms, _, _, retries, _ = self.build()
        rdbms.run_to_completion(max_time=1000.0)
        record = rdbms.record("q2")
        assert record.status == "finished"
        assert record.attempts == 2
        assert record.trace.attempts == 2
        assert retries.retried("q2") == 1

    def test_stalled_and_browned_out_queries_still_finish(self):
        rdbms, _, _, _, _ = self.build()
        rdbms.run_to_completion(max_time=1000.0)
        assert rdbms.record("q1").status == "finished"
        assert rdbms.record("q4").status == "finished"

    def test_watchdog_catches_runaway_on_fallback_path(self):
        rdbms, _, _, _, watchdog = self.build()
        rdbms.run_to_completion(max_time=1000.0)
        # q3's stats are NaN, so the PI raises and the watchdog must use
        # the observed-work heuristic -- and still abort the runaway.
        assert rdbms.record("q3").status == "aborted"
        q3_actions = [a for a in watchdog.actions if a.query_id == "q3"]
        assert q3_actions and all(a.used_fallback for a in q3_actions)
        assert watchdog.fallback_engaged

    def test_fault_events_land_in_traces(self):
        rdbms, _, _, _, _ = self.build()
        rdbms.run_to_completion(max_time=1000.0)
        assert [f.kind for f in rdbms.traces["q2"].fault_events][:2] == [
            "crash",
            "retry",
        ]
        kinds = [f.kind for f in rdbms.traces["q1"].fault_events]
        assert "stall-begin" in kinds and "stall-end" in kinds


@pytest.mark.chaos
class TestRandomizedChaos:
    """Seeded random fault storms; only invariants are asserted."""

    HORIZON = 80.0
    POLICY = RetryPolicy(max_attempts=3, base_delay=1.0)

    def run_storm(self, seed: int):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        costs = {f"q{i}": 40.0 + 30.0 * i for i in range(6)}
        for qid, cost in costs.items():
            rdbms.submit(SyntheticJob(qid, cost))
        plan = random_fault_plan(
            seed, list(costs), horizon=self.HORIZON, n_faults=6
        )
        injector = FaultInjector(rdbms, plan)
        injector.arm()
        retries = RetryController(rdbms, self.POLICY)
        watchdog = RunawayQueryWatchdog(rdbms, budget_seconds=150.0)
        watchdog.attach()
        rdbms.run_to_completion(max_time=2000.0)
        return rdbms, costs, retries, watchdog

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_hold_under_random_faults(self, seed):
        rdbms, costs, retries, _ = self.run_storm(seed)

        # Termination: the virtual clock stopped inside the cap.
        assert rdbms.clock < 2000.0

        for qid in costs:
            record = rdbms.record(qid)
            # Every query reached a terminal status.
            assert record.status in TERMINAL, (seed, qid, record.status)
            # Attempts never exceed the retry cap.
            assert 1 <= record.attempts <= self.POLICY.max_attempts
            assert record.trace.attempts == record.attempts
            # Progress accounting stays finite and non-negative.
            done = record.job.completed_work
            assert math.isfinite(done) and done >= 0.0
            # Terminal bookkeeping is consistent: exactly one terminal
            # timestamp is set, matching the status.
            trace = record.trace
            stamps = {
                "finished": trace.finished_at,
                "aborted": trace.aborted_at,
                "failed": trace.failed_at,
            }
            assert stamps[record.status] is not None
            others = [v for k, v in stamps.items() if k != record.status]
            assert all(v is None for v in others)

        # The retry layer never resubmitted anyone past the cap.
        for qid in costs:
            assert retries.retried(qid) <= self.POLICY.max_attempts - 1

    @pytest.mark.parametrize("seed", range(5))
    def test_storms_are_reproducible(self, seed):
        first = self.run_storm(seed)
        second = self.run_storm(seed)
        assert first[0].clock == second[0].clock
        statuses_a = {q: first[0].record(q).status for q in first[1]}
        statuses_b = {q: second[0].record(q).status for q in second[1]}
        assert statuses_a == statuses_b
