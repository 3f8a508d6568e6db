"""Tests for the router's sub-query retry backoff."""

import pytest

from repro.faults.retry import (
    BACKOFF_MULTIPLIER,
    BASE_DELAY,
    JITTER,
    retry_delay,
)


class TestRetryPolicy:
    """The backoff policy: fixed constants and one delay function."""

    def test_exponential_backoff(self):
        assert BACKOFF_MULTIPLIER == 2.0
        for n, factor in zip((1, 2, 3, 4), (1.0, 2.0, 4.0, 8.0)):
            assert retry_delay(n) == pytest.approx(
                BASE_DELAY * factor, rel=JITTER
            )

    def test_default_jitter_is_nonzero(self):
        # A node crash fails many sub-queries at the same virtual instant;
        # the router must not resubmit them all at exactly the same time
        # (a retry storm), so jitter is always on.
        assert JITTER == 0.1

    def test_default_jitter_spreads_mass_failure_resubmissions(self):
        # K sub-queries killed by one fault: their backoff delays must
        # spread out, deterministically, instead of collapsing onto one
        # instant.
        delays = [retry_delay(1, f"q{i}") for i in range(50)]
        assert len(set(delays)) > 40  # near-unique per query
        assert all(
            BASE_DELAY * 0.9 <= d <= BASE_DELAY * 1.1 for d in delays
        )
        # Deterministic: the same ids yield the same spread on a re-run.
        assert delays == [retry_delay(1, f"q{i}") for i in range(50)]

    def test_jitter_is_deterministic_and_bounded(self):
        first = retry_delay(1, "q7")
        assert first == retry_delay(1, "q7")  # same inputs, same delay
        # within [1-j, 1+j] * base
        assert BASE_DELAY * 0.9 <= first <= BASE_DELAY * 1.1
        assert retry_delay(1, "q7") != retry_delay(1, "other-query")

    def test_rejects_bad_attempt_number(self):
        with pytest.raises(ValueError):
            retry_delay(0)


class TestBreakerAwareDelay:
    """retry_delay consults an optional circuit breaker."""

    def test_backoff_unchanged_with_closed_breaker(self):
        from repro.qos.breaker import CircuitBreaker

        breaker = CircuitBreaker()
        with_breaker = [
            retry_delay(n, breaker=breaker, now=0.0) for n in (1, 2, 3, 4)
        ]
        without = [retry_delay(n) for n in (1, 2, 3, 4)]
        # Pinned: a closed breaker leaves backoff byte-identical.
        assert with_breaker == without
        assert without == pytest.approx(
            [BASE_DELAY * f for f in (1.0, 2.0, 4.0, 8.0)], rel=JITTER
        )

    def test_jittered_backoff_unchanged_with_closed_breaker(self):
        from repro.qos.breaker import CircuitBreaker

        breaker = CircuitBreaker()
        for i in range(20):
            qid = f"q{i}"
            assert retry_delay(1, qid, breaker=breaker, now=3.0) == \
                retry_delay(1, qid)

    def test_open_breaker_returns_its_cooldown(self):
        from repro.qos.breaker import COOLDOWN, FAILURE_THRESHOLD, CircuitBreaker

        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure(10.0)
        # Backoff would say 0.5 s; the open breaker says wait out 5 s.
        assert retry_delay(1, breaker=breaker, now=10.0) == COOLDOWN == 5.0
        assert retry_delay(1, breaker=breaker, now=12.0) == 3.0

    def test_expired_cooldown_falls_back_to_backoff(self):
        from repro.qos.breaker import FAILURE_THRESHOLD, CircuitBreaker

        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure(0.0)
        assert retry_delay(2, breaker=breaker, now=50.0) == retry_delay(2)
