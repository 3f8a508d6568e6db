"""Tests for the multiple-query speed-up problem (Section 3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import QuerySnapshot
from repro.core.standard_case import standard_case
from repro.wm.multi_speedup import choose_victim_for_all


def q(qid, cost, weight=1.0):
    return QuerySnapshot(qid, cost, weight=weight)


def brute_force(queries, rate):
    """Total response-time improvement of blocking each candidate."""
    base = standard_case(queries, rate).remaining_times
    improvements = {}
    for victim in queries:
        rest = [x for x in queries if x.query_id != victim.query_id]
        after = standard_case(rest, rate).remaining_times
        improvements[victim.query_id] = sum(
            base[x.query_id] - after[x.query_id] for x in rest
        )
    return improvements


@st.composite
def weighted_queries(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    costs = draw(
        st.lists(st.floats(min_value=0.5, max_value=300.0), min_size=n, max_size=n)
    )
    weights = draw(
        st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=n, max_size=n)
    )
    return [q(f"q{i}", c, w) for i, (c, w) in enumerate(zip(costs, weights))]


class TestChooseVictimForAll:
    def test_simple_case(self):
        # Blocking the longest query helps the most stages.
        queries = [q("a", 10), q("b", 20), q("c", 100)]
        choice = choose_victim_for_all(queries, 1.0)
        assert choice.victim == "c"
        assert choice.improvement > 0

    def test_improvement_formula_small_example(self):
        # Two equal queries, C=1: blocking either turns a (20,20) pair into
        # a solo 10s run for the other: improvement = 20 - 10 = 10.
        queries = [q("a", 10), q("b", 10)]
        choice = choose_victim_for_all(queries, 1.0)
        assert choice.improvement == pytest.approx(10.0)

    def test_all_improvements_reported(self):
        queries = [q("a", 10), q("b", 20), q("c", 30)]
        choice = choose_victim_for_all(queries, 1.0)
        assert set(choice.all_improvements) == {"a", "b", "c"}

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_victim_for_all([q("a", 1)], 1.0)
        with pytest.raises(ValueError):
            choose_victim_for_all([q("a", 1), q("b", 1)], 0.0)

    @given(queries=weighted_queries())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, queries):
        choice = choose_victim_for_all(queries, 1.0)
        brute = brute_force(queries, 1.0)
        for qid, r in choice.all_improvements.items():
            assert r == pytest.approx(brute[qid], rel=1e-6, abs=1e-6)
        best = max(brute.values())
        assert choice.improvement == pytest.approx(best, rel=1e-6, abs=1e-6)

    @given(queries=weighted_queries())
    @settings(max_examples=40, deadline=None)
    def test_improvements_nonnegative(self, queries):
        choice = choose_victim_for_all(queries, 1.0)
        assert all(v >= -1e-9 for v in choice.all_improvements.values())

    @given(
        queries=weighted_queries(),
        rate=st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rate_scaling(self, queries, rate):
        base = choose_victim_for_all(queries, 1.0)
        scaled = choose_victim_for_all(queries, rate)
        assert scaled.improvement * rate == pytest.approx(
            base.improvement, rel=1e-6, abs=1e-9
        )
