"""Tests for workload forecasts and online estimators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecast import (
    BURST_RATE_CAP,
    NO_FORECAST,
    PRIOR_STRENGTH,
    RATE_WINDOW,
    AdaptiveForecaster,
    OnlineArrivalRateEstimator,
    OnlineMeanEstimator,
    WorkloadForecast,
)


class TestWorkloadForecast:
    def test_mean_interarrival(self):
        f = WorkloadForecast(arrival_rate=0.1, average_cost=5.0)
        assert f.mean_interarrival == pytest.approx(10.0)

    def test_idle_interarrival_is_inf(self):
        assert math.isinf(NO_FORECAST.mean_interarrival)

    def test_scaled(self):
        f = WorkloadForecast(arrival_rate=0.1, average_cost=5.0)
        assert f.scaled(3.0).arrival_rate == pytest.approx(0.3)
        assert f.scaled(0.0).arrival_rate == 0.0
        with pytest.raises(ValueError):
            f.scaled(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": -0.1, "average_cost": 1.0},
            {"arrival_rate": 0.1, "average_cost": -1.0},
            {"arrival_rate": 0.1, "average_cost": 1.0, "average_weight": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadForecast(**kwargs)


class TestArrivalRateEstimator:
    def test_none_until_two_observations(self):
        e = OnlineArrivalRateEstimator()
        assert e.rate() is None
        e.observe(0.0)
        assert e.rate() is None

    def test_uniform_arrivals(self):
        e = OnlineArrivalRateEstimator()
        for i in range(11):
            e.observe(i * 5.0)
        assert e.rate() == pytest.approx(0.2)

    def test_window_tracks_recent_rate(self):
        e = OnlineArrivalRateEstimator()
        t = 0.0
        for _ in range(20):  # slow phase: one per 100s
            t += 100.0
            e.observe(t)
        for _ in range(RATE_WINDOW + 10):  # fast phase: one per 1s
            t += 1.0
            e.observe(t)
        assert e.rate() == pytest.approx(1.0, rel=0.05)

    def test_rejects_decreasing_times(self):
        e = OnlineArrivalRateEstimator()
        e.observe(10.0)
        with pytest.raises(ValueError):
            e.observe(9.0)

    def test_simultaneous_arrivals_give_capped_rate(self):
        # A zero-span burst must not disable forecasting: the rate is at
        # its highest right then.  It reports the finite cap instead.
        e = OnlineArrivalRateEstimator()
        e.observe(1.0)
        e.observe(1.0)
        assert e.rate() == BURST_RATE_CAP
        assert math.isfinite(e.rate())

    def test_near_zero_span_capped(self):
        e = OnlineArrivalRateEstimator()
        e.observe(1.0)
        e.observe(1.0 + 1e-12)
        assert e.rate() == BURST_RATE_CAP

    def test_cap_feeds_projection_safe_rate(self):
        # The capped rate keeps virtual arrival intervals >= 1 microsecond,
        # so downstream projections cannot explode their event budget.
        e = OnlineArrivalRateEstimator()
        e.observe(2.0)
        e.observe(2.0)
        assert 1.0 / e.rate() >= 1e-6


class TestMeanEstimator:
    def test_plain_mean(self):
        e = OnlineMeanEstimator()
        assert e.mean() is None
        for v in (1.0, 2.0, 3.0):
            e.observe(v)
        assert e.mean() == pytest.approx(2.0)
        assert e.count == 3

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=60)
    def test_matches_arithmetic_mean(self, values):
        e = OnlineMeanEstimator()
        for v in values:
            e.observe(v)
        assert e.mean() == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)


class TestAdaptiveForecaster:
    def _prior(self, rate=0.1, cost=10.0):
        return WorkloadForecast(arrival_rate=rate, average_cost=cost)

    def test_no_observations_returns_prior(self):
        f = AdaptiveForecaster(self._prior())
        assert f.current() == self._prior()

    def test_converges_to_observed_rate(self):
        f = AdaptiveForecaster(self._prior(rate=0.2))
        for i in range(200):
            f.observe_arrival(i * 10.0, cost=20.0)  # true rate 0.1
        current = f.current()
        assert current.arrival_rate == pytest.approx(0.1, rel=0.2)
        assert current.average_cost == pytest.approx(20.0, rel=0.1)

    def test_prior_counts_as_prior_strength_observations(self):
        f = AdaptiveForecaster(self._prior(rate=9.0))
        f.observe_arrival(0.0, cost=3.0)
        f.observe_arrival(2.0, cost=5.0)
        current = f.current()
        k0 = PRIOR_STRENGTH
        # One observed gap at rate 0.5; two observed costs averaging 4.
        assert current.arrival_rate == pytest.approx(
            (k0 * 9.0 + 0.5) / (k0 + 1)
        )
        assert current.average_cost == pytest.approx(
            (k0 * 10.0 + 2 * 4.0) / (k0 + 2)
        )

    def test_blend_moves_monotonically_with_evidence(self):
        f = AdaptiveForecaster(self._prior(rate=1.0))
        rates = [f.current().arrival_rate]
        for i in range(30):
            f.observe_arrival(i * 100.0, cost=10.0)  # true rate 0.01
            rates.append(f.current().arrival_rate)
        assert rates[-1] < rates[1] < rates[0] + 1e-12

    def test_prior_property(self):
        prior = self._prior()
        assert AdaptiveForecaster(prior).prior is prior

    @pytest.mark.parametrize("prior_rate", [0.01, 1.0])
    def test_converges_from_wrong_prior_either_direction(self, prior_rate):
        # Figures 8-10 adaptivity: whether the prior lambda' is 10x too
        # low or 10x too high, evidence pulls the blend towards the
        # measured rate and each new observation moves it closer.  The
        # rate evidence is the RATE_WINDOW - 1 gaps in the window, so the
        # prior keeps PRIOR_STRENGTH / (PRIOR_STRENGTH + RATE_WINDOW - 1)
        # of the weight; the cost evidence grows without bound.
        f = AdaptiveForecaster(self._prior(rate=prior_rate, cost=50.0))
        true_rate = 0.1
        gaps = []
        for i in range(2000):
            f.observe_arrival(i / true_rate, cost=20.0)
            gaps.append(abs(f.current().arrival_rate - true_rate))
        k0, k = PRIOR_STRENGTH, RATE_WINDOW - 1
        assert f.current().arrival_rate == pytest.approx(
            (k0 * prior_rate + k * true_rate) / (k0 + k)
        )
        assert f.current().average_cost == pytest.approx(20.0, rel=0.1)
        # Error shrinks as evidence accumulates (compare decade averages).
        assert sum(gaps[-100:]) / 100 < sum(gaps[10:110]) / 100
