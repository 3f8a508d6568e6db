"""Tests for the scheduled maintenance planner (Section 3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import QuerySnapshot
from repro.wm.maintenance import (
    LostWorkCase,
    plan_maintenance,
    quiescent_time,
)


def q(qid, remaining, done=0.0):
    return QuerySnapshot(qid, remaining, completed_work=done)


class TestQuiescentTime:
    def test_total_work_over_rate(self):
        assert quiescent_time([q("a", 10), q("b", 20)], 2.0) == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            quiescent_time([], 0.0)


class TestLostWorkCase:
    def test_case1_counts_completed(self):
        query = q("a", remaining=10, done=4)
        assert LostWorkCase.COMPLETED_WORK.loss_of(query) == 4

    def test_case2_counts_total(self):
        query = q("a", remaining=10, done=4)
        assert LostWorkCase.TOTAL_COST.loss_of(query) == 14


class TestGreedyPlan:
    def test_no_aborts_needed_when_deadline_generous(self):
        plan = plan_maintenance([q("a", 10), q("b", 20)], deadline=30.0,
                                processing_rate=1.0)
        assert plan.aborts == ()
        assert plan.lost_work == 0.0
        assert plan.meets_deadline

    def test_aborts_cheapest_loss_per_saved_second(self):
        # b has done lots of work; a has done none -- abort a first (Case 1).
        queries = [q("a", 20, done=0), q("b", 20, done=50)]
        plan = plan_maintenance(
            queries, deadline=20.0, processing_rate=1.0,
            case=LostWorkCase.COMPLETED_WORK,
        )
        assert plan.aborts == ("a",)
        assert plan.lost_work == 0.0
        assert plan.projected_quiescent_time == pytest.approx(20.0)

    def test_case2_prefers_small_total_cost_per_saved_second(self):
        # Case 2 ratio is (e+c)/c = 1 + e/c: abort the query with the least
        # completed work relative to remaining.
        queries = [q("a", 10, done=90), q("b", 10, done=5)]
        plan = plan_maintenance(
            queries, deadline=10.0, processing_rate=1.0,
            case=LostWorkCase.TOTAL_COST,
        )
        assert plan.aborts == ("b",)
        assert plan.lost_work == pytest.approx(15.0)

    def test_zero_deadline_aborts_everything_outstanding(self):
        queries = [q("a", 10), q("b", 5), q("done", 0, done=8)]
        plan = plan_maintenance(queries, 0.0, 1.0)
        assert set(plan.aborts) == {"a", "b"}
        assert plan.projected_quiescent_time == 0.0

    def test_zero_remaining_never_aborted(self):
        plan = plan_maintenance([q("done", 0, done=5)], 0.0, 1.0)
        assert plan.aborts == ()

    def test_unfinished_fraction(self):
        queries = [q("a", 10, done=0), q("b", 10, done=0)]
        plan = plan_maintenance(queries, 10.0, 1.0, case=LostWorkCase.TOTAL_COST)
        assert len(plan.aborts) == 1
        assert plan.unfinished_fraction == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_maintenance([], -1.0, 1.0)
        with pytest.raises(ValueError):
            plan_maintenance([], 1.0, 0.0)

    @given(
        queries=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=10,
        ),
        frac=st.floats(min_value=0.0, max_value=1.2),
        case=st.sampled_from(list(LostWorkCase)),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_always_meets_deadline(self, queries, frac, case):
        snaps = [q(f"q{i}", c, d) for i, (c, d) in enumerate(queries)]
        deadline = frac * quiescent_time(snaps, 1.0)
        plan = plan_maintenance(snaps, deadline, 1.0, case)
        assert plan.meets_deadline

    @given(
        queries=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_generous_deadline_aborts_nothing(self, queries):
        snaps = [q(f"q{i}", c, d) for i, (c, d) in enumerate(queries)]
        plan = plan_maintenance(snaps, quiescent_time(snaps, 1.0) + 1.0, 1.0)
        assert plan.aborts == ()

