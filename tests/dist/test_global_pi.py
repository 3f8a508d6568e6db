"""Tests for the fault-tolerant global progress aggregator.

The robustness contract: the global estimate is always finite, degraded
shards carry back their last finite value with explicit staleness, and a
rejected (NaN/inf/negative) report never poisons the rollup.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import global_pi
from repro.dist.global_pi import (
    GlobalProgressAggregator,
    GlobalQueryEstimate,
    ShardEstimate,
)


def make_agg() -> GlobalProgressAggregator:
    agg = GlobalProgressAggregator()
    agg.register("Q", 0, 10.0, now=0.0)
    agg.register("Q", 1, 20.0, now=0.0)
    return agg


class TestRegistration:
    def test_initial_estimate_is_served_immediately(self):
        est = make_agg().estimate("Q", 0.0)
        assert est.remaining_seconds == 20.0
        assert est.shards[0].remaining_seconds == 10.0
        assert not est.degraded

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_initial(self, bad):
        with pytest.raises(ValueError):
            GlobalProgressAggregator().register("Q", 0, bad, now=0.0)

    def test_rejects_duplicate_shard(self):
        agg = make_agg()
        with pytest.raises(ValueError):
            agg.register("Q", 0, 5.0, now=0.0)

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            GlobalProgressAggregator().estimate("ghost", 0.0)


class TestReports:
    def test_global_is_slowest_shard(self):
        agg = make_agg()
        agg.report("Q", 0, 8.0, now=1.0)
        agg.report("Q", 1, 15.0, now=1.0)
        est = agg.estimate("Q", 1.0)
        assert est.remaining_seconds == 15.0
        assert est.slowest_shard == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
    def test_garbage_report_rejected_and_degrades(self, bad):
        agg = make_agg()
        agg.report("Q", 0, 8.0, now=1.0)
        assert agg.report("Q", 0, bad, now=2.0) is False
        est = agg.estimate("Q", 5.0)
        # Last finite value carried back, flagged, staleness exposed.
        assert est.shards[0].remaining_seconds == 8.0
        assert est.shards[0].degraded
        assert est.shards[0].staleness == pytest.approx(4.0)
        assert math.isfinite(est.remaining_seconds)

    def test_fresh_report_clears_degraded(self):
        agg = make_agg()
        agg.report("Q", 0, float("nan"), now=1.0)
        assert agg.estimate("Q", 1.0).shards[0].degraded
        agg.report("Q", 0, 6.0, now=2.0)
        contrib = agg.estimate("Q", 2.0).shards[0]
        assert not contrib.degraded and contrib.staleness == 0.0

    def test_fresh_contribution_has_zero_staleness(self):
        agg = make_agg()
        agg.report("Q", 0, 8.0, now=1.0)
        assert agg.estimate("Q", 50.0).shards[0].staleness == 0.0


class TestLifecycle:
    def test_mark_degraded_carries_back(self):
        agg = make_agg()
        agg.report("Q", 1, 12.0, now=2.0)
        agg.mark_degraded("Q", 1)
        contrib = agg.estimate("Q", 10.0).shards[1]
        assert contrib.degraded
        assert contrib.remaining_seconds == 12.0
        assert contrib.staleness == pytest.approx(8.0)

    def test_mark_done_is_final(self):
        agg = make_agg()
        agg.mark_done("Q", 0, now=3.0)
        assert agg.report("Q", 0, 99.0, now=4.0) is False
        agg.mark_degraded("Q", 0)
        contrib = agg.estimate("Q", 9.0).shards[0]
        assert contrib.remaining_seconds == 0.0 and not contrib.degraded

    def test_all_done_means_zero_remaining(self):
        agg = make_agg()
        agg.mark_done("Q", 0, now=3.0)
        agg.mark_done("Q", 1, now=4.0)
        assert agg.estimate("Q", 5.0).remaining_seconds == 0.0

    def test_move_shard_stays_degraded_until_live_report(self):
        agg = make_agg()
        agg.move_shard("Q", 0, 25.0, now=5.0)
        contrib = agg.estimate("Q", 5.0).shards[0]
        assert contrib.remaining_seconds == 25.0 and contrib.degraded
        agg.report("Q", 0, 24.0, now=6.0)
        assert not agg.estimate("Q", 6.0).shards[0].degraded

    def test_move_shard_requires_finite(self):
        with pytest.raises(ValueError):
            make_agg().move_shard("Q", 0, float("inf"), now=5.0)

    def test_forget_drops_query(self):
        agg = make_agg()
        agg.forget("Q")
        assert agg.query_ids() == ()
        with pytest.raises(KeyError):
            agg.estimate("Q", 0.0)


class TestAlwaysFinite:
    def test_never_nan_under_garbage_storm(self):
        agg = make_agg()
        for t in range(1, 30):
            agg.report("Q", 0, float("nan"), now=float(t))
            agg.report("Q", 1, float("inf"), now=float(t))
            est = agg.estimate("Q", float(t))
            assert math.isfinite(est.remaining_seconds)
            assert all(
                math.isfinite(c.remaining_seconds)
                for c in est.shards.values()
            )
            assert est.degraded


# ----------------------------------------------------------------------
# Stored contributions vs the mutable-state aggregator they replaced
# ----------------------------------------------------------------------

class ReferenceAggregator:
    """The aggregator as it was before contributions were stored.

    Mutable ``[remaining, refreshed_at, degraded, done]`` per (query,
    shard), contributions built and sorted at every roll-up.  Kept here as
    the oracle: the real aggregator must be indistinguishable from it.
    """

    def __init__(self):
        self.queries = {}

    def _state(self, q, shard):
        if q not in self.queries:
            raise KeyError(f"unknown distributed query {q!r}")
        if shard not in self.queries[q]:
            raise KeyError(f"shard {shard} of {q!r} was never registered")
        return self.queries[q][shard]

    def register(self, q, shard, value, now):
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"initial estimate must be finite and >= 0, got {value}"
            )
        if shard in self.queries.get(q, {}):
            raise ValueError(f"shard {shard} of {q!r} already registered")
        self.queries.setdefault(q, {})[shard] = [float(value), now, False, False]

    def report(self, q, shard, value, now):
        state = self._state(q, shard)
        if state[3]:
            return False
        if not math.isfinite(value) or value < 0:
            state[2] = True
            return False
        state[:3] = [float(value), now, False]
        return True

    def mark_degraded(self, q, shard):
        state = self._state(q, shard)
        if not state[3]:
            state[2] = True

    def mark_done(self, q, shard, now):
        self._state(q, shard)[:] = [0.0, now, False, True]

    def move_shard(self, q, shard, value, now):
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"failover estimate must be finite and >= 0, got {value}"
            )
        self._state(q, shard)[:3] = [float(value), now, True]

    def forget(self, q):
        self.queries.pop(q, None)

    def estimate(self, q, now):
        if q not in self.queries:
            raise KeyError(f"unknown distributed query {q!r}")
        rows = [
            (shard, rem, at, deg, max(now - at, 0.0) if deg else 0.0)
            for shard, (rem, at, deg, _done) in sorted(self.queries[q].items())
        ]
        return (q, max((r[1] for r in rows), default=0.0), rows, now)

    def live_degraded(self):
        return [
            s for shards in self.queries.values() for s in shards.values()
            if s[2] and not s[3]
        ]


def outcome(call):
    """What a call did: its return value, or its exception type and args."""
    try:
        return ("ok", call())
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, exc.args)


_QUERIES = st.sampled_from(["A", "B"])
_SHARDS = st.integers(0, 4)
_TIMES = st.floats(0.0, 100.0)
_VALUES = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, -0.0]),
)
_OPS = st.one_of(
    st.tuples(st.sampled_from(["register", "report", "move_shard"]),
              _QUERIES, _SHARDS, _VALUES, _TIMES),
    st.tuples(st.just("mark_done"), _QUERIES, _SHARDS, _TIMES),
    st.tuples(st.just("mark_degraded"), _QUERIES, _SHARDS),
    st.tuples(st.just("forget"), _QUERIES),
)


class TestAgainstReferenceModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_OPS, _TIMES), max_size=40))
    def test_indistinguishable_from_mutable_state_model(self, steps):
        agg, ref = GlobalProgressAggregator(), ReferenceAggregator()
        for (name, *args), now in steps:
            assert outcome(lambda: getattr(agg, name)(*args)) == outcome(
                lambda: getattr(ref, name)(*args)
            ), (name, args)
            assert agg.query_ids() == tuple(ref.queries)
            for q in ("A", "B"):
                got = outcome(lambda: agg.estimate(q, now))
                want = outcome(lambda: ref.estimate(q, now))
                if want[0] != "ok":
                    assert got == want
                    continue
                est = got[1]
                assert isinstance(est, GlobalQueryEstimate)
                _, remaining, rows, as_of = want[1]
                assert (est.query_id, est.remaining_seconds, est.as_of) == (
                    q, remaining, as_of
                )
                # Ascending shard keys whatever the registration order;
                # every field of every contribution.
                assert [tuple(c) for c in est.shards.values()] == rows
                assert list(est.shards) == [r[0] for r in rows]
                assert all(isinstance(c, ShardEstimate)
                           for c in est.shards.values())
                assert all(c.staleness == 0.0 or c.degraded
                           for c in est.shards.values())
                assert est.degraded == any(r[3] for r in rows)
                assert est.staleness == max((r[4] for r in rows), default=0.0)
            assert agg.estimates(now).keys() == ref.queries.keys()
            live = ref.live_degraded()
            assert agg.degraded_count() == len(live)
            assert agg.max_staleness(now) == max(
                (max(now - s[1], 0.0) for s in live), default=0.0
            )

    def test_out_of_order_registration_rolls_up_ascending(self):
        agg = GlobalProgressAggregator()
        for shard in (3, 0, 2, 1):
            agg.register("Q", shard, 10.0 + shard, now=0.0)
        agg.report("Q", 2, 1.0, now=1.0)
        est = agg.estimate("Q", 1.0)
        assert list(est.shards) == [0, 1, 2, 3]
        assert est.slowest_shard == 3 and est.remaining_seconds == 13.0

    def test_estimates_are_immutable_snapshots(self):
        agg = make_agg()
        est = agg.estimate("Q", 0.0)
        with pytest.raises(AttributeError):
            est.remaining_seconds = 1.0
        with pytest.raises(AttributeError):
            est.shards[0].degraded = True
        agg.report("Q", 0, 1.0, now=1.0)
        est.shards.clear()  # the roll-up's dict is the caller's own copy
        assert est.as_of == 0.0
        assert list(agg.estimate("Q", 1.0).shards) == [0, 1]


class TestRollUpAllocatesNothingWhenFresh:
    @pytest.fixture
    def constructed(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return ShardEstimate(*args)

        monkeypatch.setattr(global_pi, "ShardEstimate", counting)
        return built

    def test_fresh_query_constructs_no_shard_estimate(self, constructed):
        agg = make_agg()
        agg.report("Q", 0, 8.0, now=1.0)
        agg.mark_done("Q", 1, now=1.0)
        del constructed[:]
        est = agg.estimate("Q", 5.0)
        assert agg.estimates(5.0) == {"Q": est}
        assert constructed == []
        assert est.shards[0] == (0, 8.0, 1.0, False, 0.0)

    def test_only_degraded_contributions_are_restamped(self, constructed):
        agg = make_agg()
        agg.mark_degraded("Q", 1)
        del constructed[:]
        est = agg.estimate("Q", 5.0)
        assert constructed == [(1, 20.0, 0.0, True, 5.0)]
        assert est.shards[1].staleness == 5.0 and est.shards[0].staleness == 0.0
