"""Tests for the retry policy and controller."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, QueryCrash
from repro.faults.retry import (
    BACKOFF_MULTIPLIER,
    JITTER,
    RetryController,
    RetryPolicy,
)
from repro.sim.jobs import Job, SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0)
        assert BACKOFF_MULTIPLIER == 2.0
        for n, nominal in zip((1, 2, 3, 4), (1.0, 2.0, 4.0, 8.0)):
            assert policy.delay(n) == pytest.approx(nominal, rel=JITTER)

    def test_default_jitter_is_nonzero(self):
        # A node crash fails many queries at the same virtual instant; the
        # policy must not resubmit them all at exactly the same time (a
        # retry storm), so jitter is always on.
        assert JITTER == 0.1

    def test_default_jitter_spreads_mass_failure_resubmissions(self):
        # K queries killed by one fault: their backoff delays must spread
        # out, deterministically, instead of collapsing onto one instant.
        policy = RetryPolicy()
        delays = [policy.delay(1, f"q{i}") for i in range(50)]
        assert len(set(delays)) > 40  # near-unique per query
        base = policy.base_delay
        assert all(base * 0.9 <= d <= base * 1.1 for d in delays)
        # Deterministic: the same ids yield the same spread on a re-run.
        assert delays == [policy.delay(1, f"q{i}") for i in range(50)]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=4.0)
        first = policy.delay(1, "q7")
        assert first == policy.delay(1, "q7")  # same inputs, same delay
        assert 3.6 <= first <= 4.4  # within [1-j, 1+j] * base
        assert policy.delay(1, "q7") != policy.delay(1, "other-query")

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=float("nan"))

    def test_rejects_bad_attempt_number(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class FailingJob(Job):
    """A job that always dies after a fixed amount of work."""

    def __init__(self, query_id: str, die_after: float = 5.0) -> None:
        super().__init__(query_id)
        self._die_after = die_after
        self._done = 0.0

    @property
    def completed_work(self) -> float:
        """Work completed so far, U's."""
        return self._done

    @property
    def finished(self) -> bool:
        """Never finishes: it always dies first."""
        return False

    def estimated_remaining_cost(self) -> float:
        """Claimed remaining cost (never reached)."""
        return 100.0

    def advance(self, work: float) -> float:
        """Consume work; raise once the failure point is crossed."""
        from repro.engine.errors import EngineError

        self._done += work
        if self._done >= self._die_after:
            raise EngineError("persistent failure")
        return work

    def retry_copy(self) -> "FailingJob":
        """A fresh copy that will fail again."""
        return FailingJob(self.query_id, self._die_after)


class TestRetryController:
    def test_crash_is_retried_to_completion(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        injector = FaultInjector(
            rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))
        )
        injector.arm()
        policy = RetryPolicy(max_attempts=3, base_delay=2.0)
        controller = RetryController(rdbms, policy)
        rdbms.run_to_completion(max_time=100.0)
        record = rdbms.record("q")
        assert record.status == "finished"
        assert record.attempts == 2
        assert record.trace.attempts == 2
        assert controller.retried("q") == 1
        # Crash at t=5, backoff ~2s, redo 100 U at 10 U/s: finish at ~17.
        assert record.trace.finished_at == pytest.approx(
            5.0 + policy.delay(1, "q") + 10.0
        )

    def test_retry_waits_for_backoff_delay(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        FaultInjector(rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))).arm()
        policy = RetryPolicy(max_attempts=2, base_delay=4.0)
        controller = RetryController(rdbms, policy)
        rdbms.run_to_completion(max_time=100.0)
        resubmits = [e for e in controller.events if e.action == "resubmitted"]
        assert len(resubmits) == 1
        assert resubmits[0].time == pytest.approx(5.0 + policy.delay(1, "q"))

    def test_persistent_failure_respects_attempts_cap(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(FailingJob("bad", die_after=5.0))
        controller = RetryController(
            rdbms, RetryPolicy(max_attempts=3, base_delay=1.0)
        )
        rdbms.run_to_completion(max_time=100.0)
        record = rdbms.record("bad")
        assert record.status == "failed"
        assert record.attempts == 3  # capped: initial + 2 retries
        assert controller.given_up == ["bad"]
        gave_up = [e for e in controller.events if e.action == "gave-up"]
        assert len(gave_up) == 1 and gave_up[0].attempt == 3
        kinds = [f.kind for f in record.trace.fault_events]
        assert "retry-exhausted" in kinds

    def test_max_attempts_one_disables_retries(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        FaultInjector(rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))).arm()
        controller = RetryController(rdbms, RetryPolicy(max_attempts=1))
        rdbms.run_to_completion(max_time=100.0)
        assert rdbms.record("q").status == "failed"
        assert controller.retried("q") == 0
        assert controller.given_up == ["q"]

    def test_job_factory_overrides_retry_copy(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(FailingJob("q", die_after=5.0))
        # The factory swaps the failing job for a healthy synthetic one.
        controller = RetryController(
            rdbms,
            RetryPolicy(max_attempts=2, base_delay=1.0),
            job_factory=lambda job, attempt: SyntheticJob(job.query_id, 50),
        )
        rdbms.run_to_completion(max_time=100.0)
        record = rdbms.record("q")
        assert record.status == "finished"
        assert record.attempts == 2
        assert controller.retried("q") == 1

    def test_trace_records_retry_fault_event(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        FaultInjector(rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))).arm()
        RetryController(rdbms, RetryPolicy(max_attempts=2, base_delay=1.0))
        rdbms.run_to_completion(max_time=100.0)
        kinds = [f.kind for f in rdbms.traces["q"].fault_events]
        assert "crash" in kinds and "retry" in kinds


class TestWorkAccounting:
    """Per-attempt preserved/lost accounting and the conservation law:

        gross work executed == useful work at the end + wasted work.
    """

    def run_crash(self, checkpoint=None, max_attempts=3):
        """Crash ``q`` at 50 U; the retry resumes from *checkpoint* U."""
        factory = None
        if checkpoint is not None:
            def factory(job, attempt):
                return SyntheticJob(
                    job.query_id, job.total_cost, initial_done=checkpoint
                )
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("q", 100))
        FaultInjector(rdbms, FaultPlan.of(QueryCrash("q", at_time=5.0))).arm()
        RetryController(
            rdbms, RetryPolicy(max_attempts=max_attempts, base_delay=2.0),
            job_factory=factory,
        )
        rdbms.run_to_completion(max_time=200.0)
        return rdbms.record("q")

    def test_restart_from_scratch_loses_everything(self):
        record = self.run_crash()
        assert record.status == "finished"
        # Crash at t=5 with 50 U done; no checkpoint, so all 50 are wasted.
        assert record.trace.work_preserved == [0.0]
        assert record.trace.work_lost == [50.0]
        assert record.trace.wasted_work == pytest.approx(50.0)

    def test_checkpoint_preserves_completed_intervals(self):
        record = self.run_crash(checkpoint=40.0)
        assert record.status == "finished"
        # Crash at 50 U: the retry resumes from the checkpoint at 40 U.
        assert record.trace.work_preserved == [40.0]
        assert record.trace.work_lost == [10.0]

    def test_conservation_gross_equals_useful_plus_wasted(self):
        for checkpoint in (None, 40.0):
            record = self.run_crash(checkpoint)
            trace = record.trace
            useful = record.job.completed_work
            # Attempt 1 executed preserved + lost U; attempt 2 executed
            # the rest (useful - preserved).  Everything ever executed is
            # therefore useful + wasted -- no work goes unaccounted.
            gross = sum(trace.work_preserved) + sum(trace.work_lost) + (
                useful - trace.preserved_work
            )
            assert gross == pytest.approx(useful + trace.wasted_work)
            assert useful == pytest.approx(100.0)

    def test_give_up_wastes_final_attempt_too(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(FailingJob("bad", die_after=5.0))
        RetryController(rdbms, RetryPolicy(max_attempts=2, base_delay=1.0))
        rdbms.run_to_completion(max_time=100.0)
        trace = rdbms.traces["bad"]
        # Both attempts failed: each one's work is recorded as lost.
        assert len(trace.work_lost) == 2
        assert trace.preserved_work == 0.0
        assert trace.wasted_work > 0.0


class TestBreakerAwareDelay:
    """Satellite: RetryPolicy.delay consults an optional circuit breaker."""

    def _policy(self):
        return RetryPolicy(max_attempts=5, base_delay=1.0)

    def test_backoff_unchanged_with_closed_breaker(self):
        from repro.qos.breaker import CircuitBreaker

        policy = self._policy()
        breaker = CircuitBreaker()
        with_breaker = [
            policy.delay(n, breaker=breaker, now=0.0) for n in (1, 2, 3, 4)
        ]
        without = [policy.delay(n) for n in (1, 2, 3, 4)]
        # Pinned: a closed breaker leaves backoff byte-identical.
        assert with_breaker == without
        assert without == pytest.approx([1.0, 2.0, 4.0, 8.0], rel=JITTER)

    def test_jittered_backoff_unchanged_with_closed_breaker(self):
        from repro.qos.breaker import CircuitBreaker

        policy = RetryPolicy()
        breaker = CircuitBreaker()
        for i in range(20):
            qid = f"q{i}"
            assert policy.delay(1, qid, breaker=breaker, now=3.0) == \
                policy.delay(1, qid)

    def test_open_breaker_returns_its_cooldown(self):
        from repro.qos.breaker import COOLDOWN, FAILURE_THRESHOLD, CircuitBreaker

        policy = self._policy()
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure(10.0)
        # Backoff would say 1 s; the open breaker says wait out 5 s.
        assert policy.delay(1, breaker=breaker, now=10.0) == COOLDOWN == 5.0
        assert policy.delay(1, breaker=breaker, now=12.0) == 3.0

    def test_expired_cooldown_falls_back_to_backoff(self):
        from repro.qos.breaker import FAILURE_THRESHOLD, CircuitBreaker

        policy = self._policy()
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure(0.0)
        assert policy.delay(2, breaker=breaker, now=50.0) == policy.delay(2)
