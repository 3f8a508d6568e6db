"""Tests for the PI-accuracy telemetry (Section 5.2.3 error profiles)."""

import math

import pytest

from repro.obs.accuracy import (
    ERROR_THRESHOLD,
    MEAN_ERROR_CAP,
    PROFILE_FRACTIONS,
    AccuracyTracker,
    format_accuracy,
)


def perfect_tracker():
    """One query, exact estimates at every sample."""
    tr = AccuracyTracker()
    tr.mark_started("Q1", 0.0)
    for t in (0.0, 2.0, 4.0, 6.0, 8.0):
        tr.observe("Q1", "pi", t, 10.0 - t)
    tr.mark_finished("Q1", 10.0)
    return tr


class TestAccuracyTracker:
    def test_exact_estimates_have_zero_error(self):
        report = perfect_tracker().report()
        q = report.for_query("Q1")
        e = q.estimators["pi"]
        assert e.samples == 5
        assert e.mean_rel_error == 0.0
        assert e.max_rel_error == 0.0
        assert e.final_rel_error == 0.0
        assert e.correction_lag == 0.0
        assert q.lifetime == pytest.approx(10.0)

    def test_relative_error_profile(self):
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        # Estimate is a flat 10s; actual remaining at t=10f is 10 - 10f:
        # error f / (1 - f), 1.0 at half-life.
        tr.observe("Q1", "flat", 0.0, 10.0)
        tr.mark_finished("Q1", 10.0)
        e = tr.report().for_query("Q1").estimators["flat"]
        assert [f for f, _ in e.profile] == list(PROFILE_FRACTIONS)
        assert e.profile == tuple(
            (f, pytest.approx(f / (1 - f))) for f in PROFILE_FRACTIONS
        )
        assert dict(e.profile)[0.5] == pytest.approx(1.0)

    def test_correction_lag_measures_settling(self):
        assert ERROR_THRESHOLD == 0.25
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        # Bad at t=0 and t=2 (error > 25%), good from t=4 onwards.
        tr.observe("Q1", "pi", 0.0, 30.0)   # actual 10 -> error 2.0
        tr.observe("Q1", "pi", 2.0, 16.0)   # actual 8 -> error 1.0
        tr.observe("Q1", "pi", 4.0, 6.0)    # actual 6 -> error 0.0
        tr.observe("Q1", "pi", 6.0, 4.0)    # actual 4 -> error 0.0
        tr.mark_finished("Q1", 10.0)
        e = tr.report().for_query("Q1").estimators["pi"]
        assert e.correction_lag == pytest.approx(4.0)

    def test_correction_lag_inf_when_never_settles(self):
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        tr.observe("Q1", "pi", 0.0, 99.0)
        tr.mark_finished("Q1", 10.0)
        e = tr.report().for_query("Q1").estimators["pi"]
        assert math.isinf(e.correction_lag)

    def test_unfinished_queries_reported_separately(self):
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        tr.observe("Q1", "pi", 0.0, 5.0)
        report = tr.report()
        assert report.queries == ()
        assert report.unfinished == ("Q1",)
        with pytest.raises(KeyError):
            report.for_query("Q1")

    def test_non_finite_estimate_counts_as_infinite_error(self):
        assert MEAN_ERROR_CAP == 10.0
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        tr.observe("Q1", "pi", 0.0, float("inf"))
        tr.observe("Q1", "pi", 5.0, 5.0)
        tr.mark_finished("Q1", 10.0)
        e = tr.report().for_query("Q1").estimators["pi"]
        assert math.isinf(e.max_rel_error)
        # Mean caps the infinite sample at 10.
        assert e.mean_rel_error == pytest.approx((10.0 + 0.0) / 2)

    def test_estimates_at_or_after_finish_ignored(self):
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        tr.observe("Q1", "pi", 5.0, 5.0)
        tr.observe("Q1", "pi", 10.0, 0.0)  # at finish: no defined rel error
        tr.mark_finished("Q1", 10.0)
        assert tr.report().for_query("Q1").estimators["pi"].samples == 1

    def test_late_observer_profile_carries_first_value_back(self):
        # Estimator starts sampling at t=6 of a 10s query: profile points
        # before 6s must use the first estimate, not crash.
        tr = AccuracyTracker()
        tr.mark_started("Q1", 0.0)
        tr.observe("Q1", "late", 6.0, 4.0)
        tr.mark_finished("Q1", 10.0)
        profile = dict(tr.report().for_query("Q1").estimators["late"].profile)
        assert list(profile) == list(PROFILE_FRACTIONS)
        # At t=1 the carried-back estimate 4.0 vs actual 9.0; at t=8 the
        # estimate 4.0 vs actual 2.0.
        assert profile[0.1] == pytest.approx(abs(4.0 - 9.0) / 9.0)
        assert profile[0.8] == pytest.approx(1.0)

    def test_report_sorted_and_deterministic(self):
        tr = AccuracyTracker()
        for qid in ("Qb", "Qa"):
            tr.mark_started(qid, 0.0)
            tr.observe(qid, "pi", 0.0, 1.0)
            tr.mark_finished(qid, 1.0)
        report = tr.report()
        assert [q.query_id for q in report.queries] == ["Qa", "Qb"]
        assert format_accuracy(report) == format_accuracy(tr.report())

    def test_first_start_wins_on_retry(self):
        tr = AccuracyTracker()
        tr.mark_started("Q1", 1.0)
        tr.mark_started("Q1", 5.0)  # retry: lifetime stays anchored at 1.0
        tr.observe("Q1", "pi", 6.0, 4.0)
        tr.mark_finished("Q1", 10.0)
        assert tr.report().for_query("Q1").started_at == 1.0
