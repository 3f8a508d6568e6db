"""Unit tests for the shared incremental schedule (docs/PERFORMANCE.md).

The differential and metamorphic suites (test_incremental_vs_standard,
test_stage_metamorphic) cover equivalence with the Section 2.2 oracle;
this file covers the data structure's own contract: operations, errors,
time accounting, rebasing and determinism.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.incremental as incremental
from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot
from repro.core.standard_case import standard_case


def q(qid, cost, weight=1.0):
    return QuerySnapshot(qid, cost, weight=weight)


class TestConstruction:
    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                IncrementalSchedule(rate)

    def test_initial_queries_are_admitted(self):
        sched = IncrementalSchedule(2.0, [q("a", 10), q("b", 20)])
        assert len(sched) == 2
        assert "a" in sched and "b" in sched

    def test_convenience_constructor(self):
        # The constructor takes the snapshots and the rate in one call.
        sched = IncrementalSchedule(1.0, [q("a", 5)])
        assert sched.processing_rate == 1.0
        assert sched.remaining_time_of("a") == 5.0

    def test_empty_schedule(self):
        sched = IncrementalSchedule(1.0)
        assert len(sched) == 0
        assert sched.remaining_times() == {}
        assert sched.quiescent_time() == 0.0
        assert sched.next_finish() is None
        assert sched.query_ids() == ()


class TestStructuralOps:
    def test_duplicate_add_raises(self):
        sched = IncrementalSchedule(1.0, [q("a", 10)])
        with pytest.raises(ValueError, match="duplicate"):
            sched.add(q("a", 5))

    def test_add_rejects_corrupt_snapshot(self):
        sched = IncrementalSchedule(1.0)
        with pytest.raises(ValueError):
            sched.add(q("bad", float("nan")))
        with pytest.raises(ValueError):
            sched.add(q("bad", float("inf")))
        assert len(sched) == 0

    def test_remove_unknown_raises_keyerror(self):
        sched = IncrementalSchedule(1.0)
        with pytest.raises(KeyError, match="not scheduled"):
            sched.remove("ghost")
        with pytest.raises(KeyError):
            sched.remaining_time_of("ghost")

    def test_discard_is_idempotent(self):
        sched = IncrementalSchedule(1.0, [q("a", 10)])
        assert sched.discard("a") is True
        assert sched.discard("a") is False
        assert len(sched) == 0

    def test_reweight_keeps_cost(self):
        sched = IncrementalSchedule(1.0, [q("a", 10, weight=1.0)])
        sched.reweight("a", 4.0)
        assert sched.weight_of("a") == 4.0
        assert sched.remaining_cost_of("a") == pytest.approx(10.0)
        # Alone in the system, weight does not change its remaining time.
        assert sched.remaining_time_of("a") == pytest.approx(10.0)

    def test_reweight_validates(self):
        sched = IncrementalSchedule(1.0, [q("a", 10)])
        with pytest.raises(ValueError):
            sched.reweight("a", 0.0)
        with pytest.raises(KeyError):
            sched.reweight("ghost", 2.0)


class TestReadPath:
    def test_single_query_is_c_over_rate(self):
        sched = IncrementalSchedule(4.0, [q("a", 10)])
        assert sched.remaining_time_of("a") == pytest.approx(2.5)
        assert sched.quiescent_time() == pytest.approx(2.5)

    def test_two_query_stages_by_hand(self):
        # c/w ratios: a=10, b=30.  Stage 1: both run, total weight 2,
        # a finishes at 10*2/1 = 20s.  Then b alone: 20 units left at
        # full rate -> b at 40s.
        sched = IncrementalSchedule(1.0, [q("a", 10), q("b", 30)])
        assert sched.remaining_time_of("a") == pytest.approx(20.0)
        assert sched.remaining_time_of("b") == pytest.approx(40.0)
        assert sched.remaining_times() == pytest.approx({"a": 20.0, "b": 40.0})
        assert sched.finish_order() == ("a", "b")

    def test_tie_break_by_query_id(self):
        sched = IncrementalSchedule(
            1.0, [q("z", 5), q("a", 5), q("m", 5)]
        )
        assert sched.finish_order() == ("a", "m", "z")

    def test_zero_cost_query_finishes_immediately(self):
        sched = IncrementalSchedule(1.0, [q("zero", 0.0), q("b", 10)])
        assert sched.remaining_time_of("zero") == 0.0
        finished = sched.advance(0.0)
        assert [qid for _, qid in finished] == ["zero"]
        assert "zero" not in sched and "b" in sched

    def test_next_finish(self):
        sched = IncrementalSchedule(1.0, [q("a", 10), q("b", 30)])
        dt, qid = sched.next_finish()
        assert qid == "a"
        assert dt == pytest.approx(20.0)

    def test_snapshots_round_trip_through_oracle(self):
        sched = IncrementalSchedule(
            3.0, [q("a", 7, 2.0), q("b", 11, 1.0), q("c", 2, 4.0)]
        )
        sched.advance(0.5)
        snaps = sched.snapshots()
        ref = standard_case(snaps, 3.0, include_stages=False)
        for qid, expected in ref.remaining_times.items():
            assert sched.remaining_time_of(qid) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )


class TestAdvance:
    def test_advance_validates(self):
        sched = IncrementalSchedule(1.0, [q("a", 10)])
        with pytest.raises(ValueError):
            sched.advance(-1.0)
        with pytest.raises(ValueError):
            sched.advance(float("nan"))

    def test_completions_at_exact_times(self):
        sched = IncrementalSchedule(1.0, [q("a", 10), q("b", 30)])
        finished = sched.advance(100.0)
        assert [qid for _, qid in finished] == ["a", "b"]
        times = dict((qid, t) for t, qid in finished)
        assert times["a"] == pytest.approx(20.0)
        assert times["b"] == pytest.approx(40.0)

    def test_partial_advance_accumulates_time(self):
        sched = IncrementalSchedule(1.0, [q("a", 10), q("b", 30)])
        assert sched.advance(5.0) == []
        assert sched.time == pytest.approx(5.0)
        # 5s at weight share 1/2 consumed 2.5 units of a's 10.
        assert sched.remaining_cost_of("a") == pytest.approx(7.5)
        assert sched.remaining_time_of("a") == pytest.approx(15.0)

    def test_idle_time_passes_after_drain(self):
        sched = IncrementalSchedule(1.0, [q("a", 10)])
        sched.advance(25.0)
        assert len(sched) == 0
        assert sched.time == pytest.approx(25.0)
        assert sched.virtual_time == 0.0  # drained: clock rebases free
        # The schedule is reusable after draining.
        sched.add(q("b", 5))
        assert sched.remaining_time_of("b") == pytest.approx(5.0)

    def test_interleaved_advance_matches_one_shot(self):
        queries = [q("a", 13, 2.0), q("b", 29, 1.0), q("c", 5, 4.0)]
        one = IncrementalSchedule(2.0, queries)
        many = IncrementalSchedule(2.0, queries)
        whole = one.advance(50.0)
        parts = []
        for _ in range(50):
            parts.extend(many.advance(1.0))
        assert [qid for _, qid in whole] == [qid for _, qid in parts]
        for (t1, _), (t2, _) in zip(whole, parts):
            assert t1 == pytest.approx(t2, rel=1e-9, abs=1e-9)


class TestRebase:
    def test_rebase_preserves_estimates(self):
        sched = IncrementalSchedule(
            1.0, [q("a", 10, 2.0), q("b", 20, 1.0), q("c", 30, 4.0)]
        )
        sched.advance(3.0)
        before = sched.remaining_times()
        order = sched.finish_order()
        sched.rebase()
        assert sched.virtual_time == 0.0
        assert sched.finish_order() == order
        after = sched.remaining_times()
        for qid in before:
            assert after[qid] == pytest.approx(before[qid], rel=1e-12)

    def test_rebase_on_empty_or_fresh_is_noop(self):
        sched = IncrementalSchedule(1.0)
        sched.rebase()
        sched.add(q("a", 5))
        sched.rebase()
        assert sched.remaining_time_of("a") == 5.0

    def test_auto_rebase_keeps_resolution(self):
        # A near-zero weight makes virtual time grow explosively once the
        # query runs alone (dV/dt = C/W): V overshoots the rebase
        # threshold while "slow" is still live, so advance() must rebase.
        sched = IncrementalSchedule(
            1.0, [q("b", 1.0), QuerySnapshot("slow", 0.5, weight=1e-16)]
        )
        finished = sched.advance(1.2)
        assert [qid for _, qid in finished] == ["b"]
        assert "slow" in sched
        assert sched.virtual_time == 0.0  # auto-rebased
        assert sched.remaining_time_of("slow") == pytest.approx(0.3, rel=1e-6)


_QUERY_SPECS = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=50.0),  # cost
        st.floats(min_value=0.25, max_value=4.0),  # weight
    ),
    min_size=1,
    max_size=6,
)
_STEPS = st.lists(
    st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=5
)


class TestRebaseTransparency:
    """The rebase behind ``_AUTO_REBASE_AT`` must be invisible to readers."""

    @given(specs=_QUERY_SPECS, steps=_STEPS)
    @settings(max_examples=50)
    def test_explicit_rebase_leaves_reads_unchanged(self, specs, steps):
        sched = IncrementalSchedule(
            2.0, [q(f"q{i}", c, w) for i, (c, w) in enumerate(specs)]
        )
        for dt in steps:
            sched.advance(dt)
        before_rt = sched.remaining_times()
        before_order = sched.finish_order()
        before_quiet = sched.quiescent_time()
        sched.rebase()
        assert sched.virtual_time == 0.0
        assert sched.finish_order() == before_order
        assert sched.quiescent_time() == pytest.approx(
            before_quiet, rel=1e-9, abs=1e-9
        )
        after = sched.remaining_times()
        assert after.keys() == before_rt.keys()
        for qid, rt in before_rt.items():
            assert after[qid] == pytest.approx(rt, rel=1e-9, abs=1e-9)

    @given(specs=_QUERY_SPECS, steps=_STEPS)
    @settings(max_examples=50)
    def test_auto_rebase_every_advance_matches_lazy_schedule(
        self, specs, steps
    ):
        # Force the _AUTO_REBASE_AT trigger after every advance on one twin
        # and leave the other at the (unreachable here) default: completions
        # and remaining-time reads must agree to 1e-9 throughout.
        def build():
            return IncrementalSchedule(
                2.0, [q(f"q{i}", c, w) for i, (c, w) in enumerate(specs)]
            )

        eager, lazy = build(), build()
        saved = incremental._AUTO_REBASE_AT
        eager_fin = []
        try:
            incremental._AUTO_REBASE_AT = 0.0
            for dt in steps:
                eager_fin.extend(eager.advance(dt))
        finally:
            incremental._AUTO_REBASE_AT = saved
        lazy_fin = []
        for dt in steps:
            lazy_fin.extend(lazy.advance(dt))
        assert [i for _, i in eager_fin] == [i for _, i in lazy_fin]
        for (ta, _), (tb, _) in zip(eager_fin, lazy_fin):
            assert ta == pytest.approx(tb, rel=1e-9, abs=1e-9)
        lazy_rt = lazy.remaining_times()
        eager_rt = eager.remaining_times()
        assert eager_rt.keys() == lazy_rt.keys()
        for qid, rt in lazy_rt.items():
            assert eager_rt[qid] == pytest.approx(rt, rel=1e-9, abs=1e-9)


class TestDeterminism:
    def test_same_ops_give_identical_floats(self):
        def build():
            sched = IncrementalSchedule(3.0)
            for i in range(40):
                sched.add(QuerySnapshot(f"q{i}", 7.0 + 13 * (i % 5), weight=1 + i % 3))
            sched.advance(2.5)
            for i in range(0, 40, 4):
                sched.discard(f"q{i}")
            sched.advance(1.25)
            return sched

        a, b = build(), build()
        assert a.remaining_times() == b.remaining_times()  # bit-identical
        assert a.finish_order() == b.finish_order()
        assert a.virtual_time == b.virtual_time

    def test_len_contains_weight_sum(self):
        sched = IncrementalSchedule(1.0, [q("a", 1, 2.0), q("b", 2, 3.0)])
        assert len(sched) == 2
        assert "a" in sched and "nope" not in sched
        assert sched.total_weight == pytest.approx(5.0)
        assert math.isfinite(sched.quiescent_time())
