"""Tests for the forward projection (Sections 2.2-2.4 combined)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecast import WorkloadForecast
from repro.core.model import QuerySnapshot
from repro.core.projection import ProjectionError, project
from repro.core.standard_case import standard_case


def q(qid, cost, weight=1.0):
    return QuerySnapshot(qid, cost, weight=weight)


@st.composite
def query_sets(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    costs = draw(
        st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=n, max_size=n)
    )
    weights = draw(
        st.lists(st.floats(min_value=0.25, max_value=8.0), min_size=n, max_size=n)
    )
    return [q(f"q{i}", c, w) for i, (c, w) in enumerate(zip(costs, weights))]


class TestEquivalenceWithStandardCase:
    @given(queries=query_sets(), rate=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100)
    def test_no_arrivals_matches_standard_case(self, queries, rate):
        """With no queue and no forecast, projection == closed form."""
        analytic = standard_case(queries, rate).remaining_times
        projected = project(queries, processing_rate=rate).remaining_times
        for qid, t in analytic.items():
            assert projected[qid] == pytest.approx(t, rel=1e-6, abs=1e-9)


class TestAdmissionQueue:
    def test_queued_query_waits_for_slot(self):
        result = project(
            [q("run", 50)],
            queued=[q("wait", 10)],
            processing_rate=1.0,
            multiprogramming_limit=1,
        )
        assert result.remaining_times["run"] == pytest.approx(50.0)
        assert result.remaining_times["wait"] == pytest.approx(60.0)
        assert result.queries["wait"].queue_wait == pytest.approx(50.0)
        assert result.queries["run"].queue_wait == 0.0

    def test_naq_scenario(self):
        """The paper's NAQ setup: N=(50,10,20) costs, MPL 2."""
        result = project(
            [q("Q1", 50), q("Q2", 10)],
            queued=[q("Q3", 20)],
            processing_rate=1.0,
            multiprogramming_limit=2,
        )
        # Q2 finishes at 20; Q3 admitted; Q3 done at 60; Q1 at 80.
        assert result.remaining_times["Q2"] == pytest.approx(20.0)
        assert result.remaining_times["Q3"] == pytest.approx(60.0)
        assert result.remaining_times["Q1"] == pytest.approx(80.0)
        assert result.queries["Q3"].queue_wait == pytest.approx(20.0)

    def test_fifo_admission_order(self):
        result = project(
            [q("r", 10)],
            queued=[q("first", 10), q("second", 10)],
            processing_rate=1.0,
            multiprogramming_limit=1,
        )
        assert (
            result.queries["first"].queue_wait
            < result.queries["second"].queue_wait
        )

    def test_unlimited_mpl_admits_instantly(self):
        result = project(
            [q("a", 10)],
            queued=[q("b", 10)],
            processing_rate=1.0,
            multiprogramming_limit=None,
        )
        # Both share from time 0.
        assert result.remaining_times["a"] == pytest.approx(20.0)
        assert result.remaining_times["b"] == pytest.approx(20.0)

    @given(queries=query_sets(max_n=5))
    @settings(max_examples=60)
    def test_quiescent_time_conserved_with_queue(self, queries):
        """MPL changes finish times but not the drain time."""
        running, queued = queries[:1], queries[1:]
        r1 = project(running, queued=queued, processing_rate=1.0,
                     multiprogramming_limit=1)
        r2 = project(running, queued=queued, processing_rate=1.0)
        total = sum(qq.remaining_cost for qq in queries)
        assert r1.quiescent_time == pytest.approx(total, rel=1e-6)
        assert r2.quiescent_time == pytest.approx(total, rel=1e-6)


class TestForecast:
    def test_future_arrivals_slow_everyone(self):
        base = project([q("a", 100)], processing_rate=1.0)
        loaded = project(
            [q("a", 100)],
            processing_rate=1.0,
            forecast=WorkloadForecast(arrival_rate=0.1, average_cost=10.0),
        )
        assert loaded.remaining_times["a"] > base.remaining_times["a"]

    def test_zero_rate_forecast_is_noop(self):
        f = WorkloadForecast(arrival_rate=0.0, average_cost=10.0)
        with_f = project([q("a", 10)], processing_rate=1.0, forecast=f)
        without = project([q("a", 10)], processing_rate=1.0)
        assert with_f.remaining_times == without.remaining_times

    def test_horizon_limits_arrivals(self):
        unlimited = project(
            [q("a", 100)],
            processing_rate=1.0,
            forecast=WorkloadForecast(arrival_rate=0.2, average_cost=10.0),
        )
        capped = project(
            [q("a", 100)],
            processing_rate=1.0,
            forecast=WorkloadForecast(
                arrival_rate=0.2, average_cost=10.0, horizon=20.0
            ),
        )
        assert capped.remaining_times["a"] < unlimited.remaining_times["a"]

    def test_first_virtual_arrival_after_one_interval(self):
        """A query finishing before 1/lambda sees no virtual arrivals."""
        f = WorkloadForecast(arrival_rate=0.01, average_cost=50.0)
        result = project([q("a", 10)], processing_rate=1.0, forecast=f)
        assert result.remaining_times["a"] == pytest.approx(10.0)

    def test_unstable_forecast_capped_not_livelocked(self):
        """Far-above-capacity forecasts degrade gracefully."""
        f = WorkloadForecast(arrival_rate=10.0, average_cost=100.0)
        result = project([q("a", 5)], processing_rate=1.0, forecast=f)
        assert math.isfinite(result.remaining_times["a"])

    def test_exact_deterministic_arrival_effect(self):
        """Virtual arrivals of cost 10 every 10s while a 20-cost query runs.

        Hand computation: a runs alone on [0,10) (10 left), shares 1/2 on
        [10,20) (5 left), shares 1/3 on [20,30) (5/3 left), then shares 1/4
        until it finishes at 30 + (5/3)/(1/4) = 36.67s.
        """
        f = WorkloadForecast(arrival_rate=0.1, average_cost=10.0)
        result = project([q("a", 20)], processing_rate=1.0, forecast=f)
        assert result.remaining_times["a"] == pytest.approx(30 + (5 / 3) * 4)


class TestValidation:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            project([q("a", 1)], processing_rate=0.0)

    def test_empty_projection(self):
        result = project([], processing_rate=1.0)
        assert result.remaining_times == {}
        assert result.quiescent_time == 0.0

    def test_unknown_query_lookup(self):
        result = project([q("a", 1)], processing_rate=1.0)
        with pytest.raises(KeyError):
            result.remaining_time("nope")
