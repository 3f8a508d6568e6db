"""Tests for the multi-query progress indicator."""

import math

import pytest

from repro.core.forecast import AdaptiveForecaster, WorkloadForecast
from repro.core.model import QuerySnapshot, SystemSnapshot
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.standard_case import standard_case


def snap(running, queued=(), rate=1.0, mpl=None, time=0.0):
    return SystemSnapshot.of(
        running=running,
        queued=queued,
        processing_rate=rate,
        multiprogramming_limit=mpl,
        time=time,
    )


def q(qid, cost, weight=1.0):
    return QuerySnapshot(qid, cost, weight=weight)


class TestPlainEstimation:
    def test_matches_standard_case(self):
        queries = [q("a", 10), q("b", 25), q("c", 40)]
        pi = MultiQueryProgressIndicator()
        est = pi.estimate(snap(queries, rate=2.0))
        expected = standard_case(queries, 2.0).remaining_times
        for qid, t in expected.items():
            assert est.for_query(qid) == pytest.approx(t)

    def test_estimate_for_shortcut(self):
        queries = [q("a", 10), q("b", 20)]
        pi = MultiQueryProgressIndicator()
        assert pi.estimate_for(snap(queries), "b") == pytest.approx(30.0)

    def test_unknown_query_raises(self):
        pi = MultiQueryProgressIndicator()
        est = pi.estimate(snap([q("a", 10)]))
        with pytest.raises(KeyError):
            est.for_query("zzz")

    def test_quiescent_time(self):
        pi = MultiQueryProgressIndicator()
        est = pi.estimate(snap([q("a", 10), q("b", 20)], rate=2.0))
        assert est.quiescent_time == pytest.approx(15.0)

    def test_estimate_time_carried_from_snapshot(self):
        pi = MultiQueryProgressIndicator()
        est = pi.estimate(snap([q("a", 10)], time=42.0))
        assert est.time == 42.0


class TestQueueVisibility:
    def _naq(self):
        return snap(
            [q("Q1", 250), q("Q2", 50)],
            queued=[q("Q3", 100)],
            rate=1.0,
            mpl=2,
        )

    def test_queue_aware_estimate(self):
        pi = MultiQueryProgressIndicator(consider_queue=True)
        est = pi.estimate(self._naq())
        assert est.for_query("Q1") == pytest.approx(400.0)
        assert est.for_query("Q3") == pytest.approx(300.0)
        assert est.queue_waits["Q3"] == pytest.approx(100.0)

    def test_queue_blind_estimate(self):
        pi = MultiQueryProgressIndicator(consider_queue=False)
        est = pi.estimate(self._naq())
        # Blind to Q3: Q1 seems to finish at 50*2 + 200 = 300.
        assert est.for_query("Q1") == pytest.approx(300.0)
        # Queued queries get no estimate (reported as +inf).
        assert math.isinf(est.for_query("Q3"))

    def test_queue_aware_beats_blind_for_running_query(self):
        state = self._naq()
        aware = MultiQueryProgressIndicator(consider_queue=True).estimate(state)
        blind = MultiQueryProgressIndicator(consider_queue=False).estimate(state)
        actual_q1 = 400.0
        assert abs(aware.for_query("Q1") - actual_q1) < abs(
            blind.for_query("Q1") - actual_q1
        )


class TestForecasting:
    def test_forecast_inflates_estimates(self):
        state = snap([q("a", 100)])
        plain = MultiQueryProgressIndicator().estimate(state)
        loaded = MultiQueryProgressIndicator(
            forecast=WorkloadForecast(arrival_rate=0.05, average_cost=20.0)
        ).estimate(state)
        assert loaded.for_query("a") > plain.for_query("a")

    def test_estimates_bounded_under_overload_forecast(self):
        """The drain-relative horizon keeps estimates finite and sane."""
        state = snap([q("a", 100)])
        pi = MultiQueryProgressIndicator(
            forecast=WorkloadForecast(arrival_rate=5.0, average_cost=100.0),
            horizon_drain_factor=3.0,
        )
        est = pi.estimate(state)
        assert math.isfinite(est.for_query("a"))
        # All forecast work within the horizon plus own work is an upper
        # bound on the projection's outcome.
        assert est.for_query("a") <= 100 + 5.0 * 300 * 100 + 1

    def test_horizon_factor_validation(self):
        with pytest.raises(ValueError):
            MultiQueryProgressIndicator(horizon_drain_factor=0.0)

    def test_explicit_horizon_respected(self):
        state = snap([q("a", 100)])
        f = WorkloadForecast(arrival_rate=0.1, average_cost=10.0, horizon=20.0)
        est = MultiQueryProgressIndicator(forecast=f).estimate(state)
        # Only two virtual arrivals (t=10, 20) fit in the horizon.
        assert est.for_query("a") == pytest.approx(120.0)
        assert est.forecast_used is not None
        assert est.forecast_used.horizon == 20.0


class TestAdaptiveForecaster:
    def test_forecaster_overrides_static_forecast(self):
        prior = WorkloadForecast(arrival_rate=0.5, average_cost=100.0)
        pi = MultiQueryProgressIndicator(
            forecast=WorkloadForecast(arrival_rate=0.0, average_cost=0.0),
            forecaster=AdaptiveForecaster(prior),
        )
        current = pi.current_forecast()
        assert current is not None
        assert current.arrival_rate == pytest.approx(0.5)

    def test_observed_arrivals_correct_the_rate(self):
        prior = WorkloadForecast(arrival_rate=0.2, average_cost=10.0)
        pi = MultiQueryProgressIndicator(forecaster=AdaptiveForecaster(prior))
        # Real arrivals ~ one per 100s: far slower than the prior.
        for i in range(50):
            pi.observe_arrival(i * 100.0, cost=10.0)
        corrected = pi.current_forecast()
        assert corrected is not None
        assert corrected.arrival_rate < 0.05

    def test_estimates_improve_as_forecaster_learns(self):
        state = snap([q("a", 100)])
        prior = WorkloadForecast(arrival_rate=0.2, average_cost=50.0)
        pi = MultiQueryProgressIndicator(forecaster=AdaptiveForecaster(prior))
        before = pi.estimate(state).for_query("a")
        # The true stream is empty-ish: arrivals every 1000s, tiny cost.
        for i in range(100):
            pi.observe_arrival(i * 1000.0, cost=1.0)
        after = pi.estimate(state).for_query("a")
        truth = 100.0  # no real load
        assert abs(after - truth) < abs(before - truth)
