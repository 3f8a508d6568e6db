"""Tests for the PI harness that wires estimators into simulations."""

import pytest

from repro.core.forecast import (
    PRIOR_STRENGTH,
    AdaptiveForecaster,
    WorkloadForecast,
)
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.experiments.harness import (
    MULTI_QUERY,
    SINGLE_QUERY,
    PIHarness,
    actual_remaining_series,
    estimate_series,
)
from repro.sim.rdbms import SimulatedRDBMS, make_synthetic_workload


def build(costs=(50, 100), interval=5.0, **kwargs):
    db = SimulatedRDBMS(processing_rate=1.0)
    for job in make_synthetic_workload(costs):
        db.submit(job)
    harness = PIHarness(db, interval=interval, **kwargs)
    return db, harness


class TestSampling:
    def test_records_both_estimators(self):
        db, _ = build()
        db.run_to_completion()
        trace = db.traces["Q2"]
        assert MULTI_QUERY in trace.estimates
        assert SINGLE_QUERY in trace.estimates

    def test_multi_query_estimates_exact_under_assumptions(self):
        db, _ = build()
        db.run_to_completion()
        fin = db.traces["Q2"].finished_at
        for t, est in db.traces["Q2"].estimates[MULTI_QUERY]:
            if t < fin:
                assert est == pytest.approx(fin - t, rel=1e-6)

    def test_single_needs_warmup(self):
        db, _ = build(interval=5.0)
        db.run_to_completion()
        single = db.traces["Q2"].estimates[SINGLE_QUERY]
        multi = db.traces["Q2"].estimates[MULTI_QUERY]
        # The first single estimate arrives one sample later than multi.
        assert single.first_time() > multi.first_time()

    def test_with_single_disabled(self):
        db, _ = build(with_single=False)
        db.run_to_completion()
        assert SINGLE_QUERY not in db.traces["Q2"].estimates

    def test_custom_multi_indicators(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        for job in make_synthetic_workload([30, 60]):
            db.submit(job)
        PIHarness(
            db,
            interval=5.0,
            multi_indicators={
                "forecasting": MultiQueryProgressIndicator(
                    forecast=WorkloadForecast(0.1, 10.0)
                )
            },
        )
        db.run_to_completion()
        assert "forecasting" in db.traces["Q2"].estimates

    def test_sample_now(self):
        db, harness = build(interval=1000.0)
        harness.sample_now()
        assert len(db.traces["Q1"].estimates[MULTI_QUERY]) == 1

    def test_invalid_interval(self):
        db = SimulatedRDBMS()
        with pytest.raises(ValueError):
            PIHarness(db, interval=0.0)


class TestArrivalForwarding:
    def test_arrivals_feed_adaptive_forecaster(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        prior = WorkloadForecast(arrival_rate=0.5, average_cost=1.0)
        forecaster = AdaptiveForecaster(prior)
        indicator = MultiQueryProgressIndicator(forecaster=forecaster)
        PIHarness(db, interval=5.0, multi_indicators={"m": indicator},
                  with_single=False)
        for job in make_synthetic_workload([5, 5, 5]):
            db.submit(job)
        # Three arrivals observed at t=0 (simultaneous: rate undefined,
        # cost mean well-defined), blended with the prior's cost.
        current = indicator.current_forecast()
        assert current is not None
        assert current.average_cost == pytest.approx(
            (PRIOR_STRENGTH * 1.0 + 3 * 5.0) / (PRIOR_STRENGTH + 3)
        )


class TestSeriesHelpers:
    def test_estimate_series(self):
        db, _ = build()
        db.run_to_completion()
        series = estimate_series(db, "Q1", MULTI_QUERY)
        assert series and all(len(p) == 2 for p in series)
        assert estimate_series(db, "Q1", "missing") == []

    def test_actual_remaining_series(self):
        db, _ = build()
        db.run_to_completion()
        fin = db.traces["Q1"].finished_at
        pts = actual_remaining_series(db, "Q1", [0.0, fin / 2])
        assert pts[0][1] == pytest.approx(fin)
        assert pts[1][1] == pytest.approx(fin / 2)
