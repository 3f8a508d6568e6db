"""Tests for abort-overhead-aware maintenance planning (future-work ext.)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import QuerySnapshot
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.maintenance import plan_maintenance
from repro.wm.overhead import (
    constant_overhead,
    exact_plan_with_overhead,
    plan_ignoring_overhead,
    proportional_overhead,
)


def q(qid, remaining, done=0.0):
    return QuerySnapshot(qid, remaining, completed_work=done)


class TestOverheadFns:
    def test_proportional(self):
        fn = proportional_overhead(0.5)
        assert fn(q("a", 10, done=8)) == 4.0
        with pytest.raises(ValueError):
            proportional_overhead(-0.1)

    def test_constant(self):
        fn = constant_overhead(3.0)
        assert fn(q("a", 10)) == 3.0
        with pytest.raises(ValueError):
            constant_overhead(-1)


class TestGreedyWithOverhead:
    def test_zero_overhead_matches_base_greedy(self):
        queries = [q("a", 30, 5), q("b", 20, 40), q("c", 50, 1)]
        base = plan_maintenance(queries, 40.0, 1.0)
        ext = plan_maintenance(
            queries, 40.0, 1.0, overhead=constant_overhead(0.0)
        )
        assert ext == base

    def test_useless_aborts_skipped(self):
        """A query whose rollback costs as much as finishing it is never
        aborted -- killing it frees no time."""
        queries = [q("cheap_kill", 50, 0), q("expensive_kill", 50, 0)]

        def overhead(query):
            return 60.0 if query.query_id == "expensive_kill" else 0.0

        plan = plan_maintenance(queries, 50.0, 1.0, overhead=overhead)
        assert "expensive_kill" not in plan.aborts
        assert plan.aborts == ("cheap_kill",)
        assert plan.meets_deadline

    def test_rollback_counts_toward_drain(self):
        queries = [q("a", 100, 0), q("b", 10, 0)]
        plan = plan_maintenance(queries, 40.0, 1.0, overhead=constant_overhead(20.0))
        # Aborting a leaves b (10) + rollback (20) = 30 <= 40.
        assert plan.aborts == ("a",)
        assert plan.projected_quiescent_time == pytest.approx(30.0)
        assert plan.rollback_work == 20.0

    def test_infeasible_deadline_reported(self):
        queries = [q("a", 100, 0)]
        plan = plan_maintenance(queries, 10.0, 1.0, overhead=constant_overhead(50.0))
        # Aborting costs 50 > deadline; keeping costs 100: infeasible.
        assert not plan.meets_deadline

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_maintenance([], -1.0, 1.0, overhead=constant_overhead(0))
        with pytest.raises(ValueError):
            plan_maintenance([], 1.0, 0.0, overhead=constant_overhead(0))
        with pytest.raises(ValueError):
            plan_maintenance([q("a", 1)], 1.0, 1.0, overhead=lambda _: -1.0)

    @given(
        items=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=100.0),
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=30.0),
            ),
            min_size=1,
            max_size=8,
        ),
        frac=st.floats(min_value=0.1, max_value=1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_never_loses_to_greedy(self, items, frac):
        queries = [q(f"q{i}", c, d) for i, (c, d, _) in enumerate(items)]
        overheads = {f"q{i}": o for i, (_, _, o) in enumerate(items)}
        fn = lambda query: overheads[query.query_id]
        deadline = frac * sum(c for c, _, _ in items)
        greedy = plan_maintenance(queries, deadline, 1.0, overhead=fn)
        exact = exact_plan_with_overhead(queries, deadline, 1.0, fn)
        if greedy.meets_deadline:
            assert exact.meets_deadline
            assert exact.lost_work <= greedy.lost_work + 1e-6

    @given(
        items=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=100.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=8,
        ),
        frac=st.floats(min_value=0.0, max_value=1.2),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_aware_drain_never_worse_than_blind(self, items, frac, fraction):
        queries = [q(f"q{i}", c, d) for i, (c, d) in enumerate(items)]
        fn = proportional_overhead(fraction)
        deadline = frac * sum(c for c, _ in items)
        aware = plan_maintenance(queries, deadline, 1.0, overhead=fn)
        blind = plan_ignoring_overhead(queries, deadline, 1.0, fn)
        if blind.meets_deadline:
            assert aware.meets_deadline


class TestSimulatorRollback:
    def test_abort_with_overhead_extends_drain(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        db.submit(SyntheticJob("a", 100))
        db.submit(SyntheticJob("b", 10))
        db.abort("a", rollback_overhead=20.0)
        db.run_to_completion()
        # b (10) + rollback (20) share capacity; drain at t=30.
        assert db.clock == pytest.approx(30.0)
        assert db.record("__rollback_a").status == "finished"

    def test_rollback_runs_even_while_draining(self):
        db = SimulatedRDBMS(processing_rate=1.0)
        db.submit(SyntheticJob("a", 100))
        db.drain(True)
        db.abort("a", rollback_overhead=15.0)
        db.run_to_completion()
        assert db.clock == pytest.approx(15.0)

    def test_negative_overhead_rejected(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 1))
        with pytest.raises(ValueError):
            db.abort("a", rollback_overhead=-1.0)

    def test_zero_overhead_injects_nothing(self):
        db = SimulatedRDBMS()
        db.submit(SyntheticJob("a", 5))
        db.abort("a")
        assert "__rollback_a" not in db.records()
