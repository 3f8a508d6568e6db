"""Tests for the per-node circuit breaker state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos.breaker import (
    COOLDOWN,
    FAILURE_THRESHOLD,
    BreakerBoard,
    CircuitBreaker,
)


def tripped(at: float = 0.0) -> CircuitBreaker:
    """A breaker opened at *at* by FAILURE_THRESHOLD failures there."""
    b = CircuitBreaker()
    for _ in range(FAILURE_THRESHOLD):
        b.record_failure(at)
    return b


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker()
        assert b.state == "closed"
        assert b.allow(0.0)

    def test_trips_open_on_consecutive_failures(self):
        assert FAILURE_THRESHOLD == 3
        b = CircuitBreaker()
        b.record_failure(1.0)
        b.record_failure(2.0)
        assert b.state == "closed"
        b.record_failure(3.0)
        assert b.state == "open"
        assert not b.allow(3.0)

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker()
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(2.5)
        b.record_failure(3.0)
        b.record_failure(4.0)
        assert b.state == "closed"  # streak restarted after the success

    def test_open_refuses_until_cooldown(self):
        assert COOLDOWN == 5.0
        b = tripped(at=10.0)
        assert not b.allow(10.0)
        assert not b.allow(14.9)
        assert b.retry_after(12.0) == pytest.approx(3.0)
        assert b.allow(15.0)
        assert b.state == "half_open"

    def test_half_open_grants_exactly_one_probe(self):
        b = tripped()
        assert b.allow(5.0)  # the probe
        assert not b.allow(5.0)  # second concurrent request refused
        b.record_success(6.0)
        assert b.state == "closed"
        assert b.allow(6.0)

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        b = tripped()
        assert b.allow(5.0)
        b.record_failure(6.0)
        assert b.state == "open"
        assert not b.allow(10.9)  # fresh cooldown anchored at t=6
        assert b.allow(11.0)

    def test_retry_after_is_pure(self):
        b = tripped()
        assert b.retry_after(100.0) == 0.0
        assert b.state == "open"  # retry_after never transitions

    def test_straggler_failures_do_not_extend_cooldown(self):
        b = tripped()
        b.record_failure(4.0)  # straggler from before the trip
        assert b.allow(5.0)  # cooldown still anchored at t=0

    def test_transitions_are_logged(self):
        b = tripped()
        b.allow(COOLDOWN)
        b.record_success(COOLDOWN + 0.5)
        states = [(t.from_state, t.to_state) for t in b.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]


class TestBoard:
    def test_lazily_creates_per_node_breakers(self):
        board = BreakerBoard()
        a = board.for_node("node0")
        assert board.for_node("node0") is a
        assert board.for_node("node1") is not a

    def test_open_nodes_lists_tripped_breakers(self):
        board = BreakerBoard()
        for _ in range(FAILURE_THRESHOLD):
            board.for_node("node1").record_failure(0.0)
        board.for_node("node0")
        assert board.open_nodes() == ("node1",)


# ---------------------------------------------------------------------------
# Property tests: arbitrary failure/success/clock sequences
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["fail", "success", "allow"]),
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)


def _replay(ops):
    """Replay an op sequence with a monotone clock; return (breaker, now)."""
    b = CircuitBreaker()
    now = 0.0
    opened_at = None
    for op, dt in ops:
        now += dt
        if op == "fail":
            before = b.state
            b.record_failure(now)
            if before != "open" and b.state == "open":
                opened_at = now
        elif op == "success":
            b.record_success(now)
        else:
            allowed = b.allow(now)
            # Never probe before the cooldown elapses.
            if allowed and opened_at is not None and b.state == "half_open":
                assert now >= opened_at + COOLDOWN - 1e-9
    return b, now


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_never_probes_before_cooldown(ops):
    # The assertion lives inside _replay: every allow() granted out of the
    # open state happens at or after opened_at + cooldown.
    _replay(ops)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_healthy_node_never_wedges_open(ops):
    # However hostile the history, a node that is healthy *now* escapes:
    # wait out the cooldown, probe, succeed -> closed and allowing.
    b, now = _replay(ops)
    later = now + COOLDOWN + 1.0
    if not b.allow(later):
        # The only legitimate refusal after a full cooldown is a probe the
        # replay already has in flight; the healthy node answers it.
        assert b.state == "half_open", (
            "breaker refused a request after full cooldown with no probe out"
        )
    b.record_success(later)
    assert b.state == "closed"
    assert b.allow(later)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_closed_state_always_allows(ops):
    b, now = _replay(ops)
    if b.state == "closed":
        assert b.allow(now)


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_retry_after_never_exceeds_cooldown(ops):
    b, now = _replay(ops)
    assert 0.0 <= b.retry_after(now) <= COOLDOWN + 1e-9
