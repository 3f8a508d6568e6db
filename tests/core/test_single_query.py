"""Tests for the single-query PI baseline and its speed monitor."""

import pytest

from repro.core.single_query import (
    WINDOW_SECONDS,
    SingleQueryProgressIndicator,
    SpeedMonitor,
)


class TestSpeedMonitor:
    def test_needs_two_samples(self):
        m = SpeedMonitor()
        assert m.speed() is None
        m.observe(0.0, 0.0)
        assert m.speed() is None
        m.observe(1.0, 2.0)
        assert m.speed() == pytest.approx(2.0)

    def test_windowing_discards_old_speed(self):
        assert WINDOW_SECONDS == 10.0
        m = SpeedMonitor()
        # Fast at first (10 U/s), then slow (1 U/s).
        m.observe(0.0, 0.0)
        m.observe(1.0, 10.0)
        for t in range(2, 22):
            m.observe(float(t), 10.0 + (t - 1) * 1.0)
        # Window [11..21]: pure 1 U/s.
        assert m.speed() == pytest.approx(1.0, rel=0.2)

    def test_rejects_time_travel(self):
        m = SpeedMonitor()
        m.observe(5.0, 1.0)
        with pytest.raises(ValueError):
            m.observe(4.0, 2.0)

    def test_rejects_shrinking_work(self):
        m = SpeedMonitor()
        m.observe(0.0, 10.0)
        with pytest.raises(ValueError):
            m.observe(1.0, 5.0)

    def test_zero_speed_when_stalled(self):
        m = SpeedMonitor()
        m.observe(0.0, 5.0)
        m.observe(10.0, 5.0)
        assert m.speed() == pytest.approx(0.0)


class TestSingleQueryPI:
    def test_estimate_is_cost_over_speed(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(0.0, 0.0)
        pi.observe(10.0, 20.0)  # 2 U/s
        est = pi.estimate(10.0, remaining_cost=40.0)
        assert est is not None
        assert est.remaining_seconds == pytest.approx(20.0)
        assert est.speed == pytest.approx(2.0)

    def test_no_estimate_before_speed_known(self):
        pi = SingleQueryProgressIndicator()
        assert pi.estimate(0.0, 10.0) is None
        pi.observe(0.0, 0.0)
        assert pi.estimate(0.0, 10.0) is None

    def test_no_estimate_at_zero_speed_with_work_left(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(0.0, 5.0)
        pi.observe(1.0, 5.0)
        assert pi.estimate(1.0, 10.0) is None

    def test_zero_remaining_gives_zero(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(0.0, 0.0)
        pi.observe(1.0, 1.0)
        est = pi.estimate(1.0, 0.0)
        assert est is not None
        assert est.remaining_seconds == 0.0

    def test_negative_cost_rejected(self):
        pi = SingleQueryProgressIndicator()
        with pytest.raises(ValueError):
            pi.estimate(0.0, -1.0)

    def test_last_estimate_retained(self):
        pi = SingleQueryProgressIndicator()
        assert pi.last_estimate is None
        pi.observe(0.0, 0.0)
        pi.observe(1.0, 1.0)
        pi.estimate(1.0, 10.0)
        assert pi.last_estimate is not None
        assert pi.last_estimate.remaining_seconds == pytest.approx(10.0)

    def test_tracks_load_change(self):
        """After a concurrent query 'finishes', the estimate shrinks."""
        pi = SingleQueryProgressIndicator()
        # Shared phase: 0.5 U/s.
        for t in range(0, 9):
            pi.observe(float(t), 0.5 * t)
        slow = pi.estimate(8.0, 100.0)
        # Alone now: 1 U/s from t=8 on.
        base = 4.0
        for t in range(9, 21):
            pi.observe(float(t), base + 1.0 * (t - 8))
        fast = pi.estimate(20.0, 88.0)
        assert slow is not None and fast is not None
        assert fast.remaining_seconds < slow.remaining_seconds
        assert fast.speed == pytest.approx(1.0, rel=0.05)
