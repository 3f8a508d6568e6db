"""Tests for declarative fault plans and their validation."""

import math

import pytest

from repro.faults.plan import (
    Brownout,
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    QueryCrash,
    QueryStall,
    StatsCorruption,
    random_fault_plan,
)


class TestQueryCrash:
    def test_timed_trigger(self):
        crash = QueryCrash("q", at_time=5.0)
        assert crash.at_time == 5.0 and crash.at_fraction is None

    def test_fraction_trigger(self):
        crash = QueryCrash("q", at_fraction=0.5)
        assert crash.at_fraction == 0.5

    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            QueryCrash("q")
        with pytest.raises(ValueError):
            QueryCrash("q", at_time=1.0, at_fraction=0.5)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_time(self, bad):
        with pytest.raises(ValueError):
            QueryCrash("q", at_time=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_bad_fraction(self, bad):
        with pytest.raises(ValueError):
            QueryCrash("q", at_fraction=bad)


class TestQueryStall:
    def test_valid(self):
        stall = QueryStall("q", at=1.0, duration=2.0)
        assert stall.duration == 2.0

    @pytest.mark.parametrize("at,dur", [(-1, 1), (float("nan"), 1), (0, 0), (0, -1), (0, float("inf"))])
    def test_rejects_bad_window(self, at, dur):
        with pytest.raises(ValueError):
            QueryStall("q", at=at, duration=dur)


class TestBrownout:
    def test_valid(self):
        assert Brownout(start=0.0, duration=5.0, factor=0.0).factor == 0.0

    @pytest.mark.parametrize("factor", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError):
            Brownout(start=0.0, duration=5.0, factor=factor)


class TestStatsCorruption:
    def test_nan_and_inf_factors_allowed(self):
        assert math.isnan(StatsCorruption(0.0, 5.0, float("nan")).factor)
        assert math.isinf(StatsCorruption(0.0, 5.0, float("inf")).factor)

    def test_permanent_corruption(self):
        assert StatsCorruption(0.0, None, 2.0).duration is None

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            StatsCorruption(0.0, 5.0, -1.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            StatsCorruption(0.0, 0.0, 2.0)


class TestNodeCrash:
    def test_permanent_by_default(self):
        crash = NodeCrash("node1", at=5.0)
        assert crash.down_for is None

    def test_recovering_crash(self):
        assert NodeCrash("node1", at=5.0, down_for=10.0).down_for == 10.0

    def test_rejects_empty_node_and_bad_times(self):
        with pytest.raises(ValueError):
            NodeCrash("", at=5.0)
        with pytest.raises(ValueError):
            NodeCrash("node1", at=-1.0)
        with pytest.raises(ValueError):
            NodeCrash("node1", at=float("nan"))
        with pytest.raises(ValueError):
            NodeCrash("node1", at=5.0, down_for=0.0)


class TestNetworkPartition:
    def test_valid(self):
        part = NetworkPartition("node2", at=1.0, duration=4.0)
        assert part.duration == 4.0

    @pytest.mark.parametrize(
        "at,dur", [(-1, 1), (float("nan"), 1), (0, 0), (0, float("inf"))]
    )
    def test_rejects_bad_window(self, at, dur):
        with pytest.raises(ValueError):
            NetworkPartition("node2", at=at, duration=dur)

    def test_rejects_empty_node(self):
        with pytest.raises(ValueError):
            NetworkPartition("", at=1.0, duration=1.0)


class TestNodeBrownout:
    def test_factor_zero_freezes_node(self):
        assert NodeBrownout("node0", at=0.0, duration=5.0, factor=0.0).factor == 0.0

    @pytest.mark.parametrize("factor", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError):
            NodeBrownout("node0", at=0.0, duration=5.0, factor=factor)


class TestFaultPlan:
    def test_of_and_len(self):
        plan = FaultPlan.of(Brownout(0.0, 1.0), QueryCrash("q", at_time=1.0))
        assert len(plan) == 2

    def test_rejects_non_faults(self):
        with pytest.raises(ValueError):
            FaultPlan(faults=("not a fault",))

    def test_for_query(self):
        crash = QueryCrash("a", at_time=1.0)
        stall = QueryStall("b", at=1.0, duration=1.0)
        plan = FaultPlan.of(crash, stall, Brownout(0.0, 1.0))
        assert plan.for_query("a") == (crash,)
        assert plan.for_query("b") == (stall,)
        assert plan.for_query("zzz") == ()

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan.of(
            QueryCrash("a", at_fraction=0.5),
            QueryStall("b", at=1.0, duration=2.0),
            Brownout(0.0, 1.0, factor=0.25),
            StatsCorruption(0.0, None, float("inf")),
        )
        text = plan.describe()
        assert "crash" in text and "stall" in text
        assert "brownout" in text and "corrupt" in text
        assert "permanently" in text

    def test_describe_empty(self):
        assert "empty" in FaultPlan().describe()

    def test_for_node_and_node_faults(self):
        crash = NodeCrash("node1", at=3.0)
        part = NetworkPartition("node2", at=1.0, duration=2.0)
        qcrash = QueryCrash("a", at_time=1.0)
        plan = FaultPlan.of(crash, part, qcrash)
        assert plan.for_node("node1") == (crash,)
        assert plan.for_node("node2") == (part,)
        assert plan.for_node("node9") == ()
        assert plan.node_faults() == (crash, part)

    def test_describe_mentions_node_faults(self):
        text = FaultPlan.of(
            NodeCrash("node1", at=3.0, down_for=5.0),
            NetworkPartition("node2", at=1.0, duration=2.0),
            NodeBrownout("node0", at=0.0, duration=4.0, factor=0.25),
        ).describe()
        assert "node-crash node1" in text and "back after 5s" in text
        assert "partition" in text and "node-brownout node0" in text


class TestRandomFaultPlan:
    def test_deterministic_per_seed(self):
        a = random_fault_plan(3, ["q1", "q2"], horizon=50.0)
        b = random_fault_plan(3, ["q1", "q2"], horizon=50.0)
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        plans = {
            random_fault_plan(s, ["q1", "q2"], horizon=50.0, n_faults=6).describe()
            for s in range(8)
        }
        assert len(plans) > 1

    def test_all_faults_valid_and_counted(self):
        for seed in range(20):
            plan = random_fault_plan(seed, ["a", "b", "c"], 100.0, n_faults=5)
            assert len(plan) == 5  # construction already validated each fault

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            random_fault_plan(0, [], 10.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, ["q"], 0.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, ["q"], 10.0, n_faults=-1)
        with pytest.raises(ValueError):
            random_fault_plan(0, ["q"], 10.0, node_ids=[])

    def test_node_ids_widens_draw_to_node_faults(self):
        node_kinds = (NodeCrash, NetworkPartition, NodeBrownout)
        seen = set()
        for seed in range(30):
            plan = random_fault_plan(
                seed, ["a", "b"], 50.0, n_faults=6,
                node_ids=["node0", "node1"],
            )
            seen.update(
                type(f) for f in plan.faults if isinstance(f, node_kinds)
            )
            for fault in plan.node_faults():
                assert fault.node_id in ("node0", "node1")
        assert seen == set(node_kinds)  # every node shape eventually drawn

    def test_default_seeds_unchanged_by_node_flag_existence(self):
        # The node_ids flag is opt-in: without it, seeded plans must stay
        # byte-for-byte stable so existing chaos baselines keep meaning.
        for seed in (0, 1, 7, 42):
            plan = random_fault_plan(seed, ["q1", "q2"], horizon=50.0)
            assert not plan.node_faults()
            again = random_fault_plan(seed, ["q1", "q2"], horizon=50.0)
            # describe(), not ==: a NaN corruption factor is unequal to
            # itself, but its rendering is stable.
            assert plan.describe() == again.describe()

    def test_seed_42_plan_is_byte_stable(self):
        # Pinned golden description: fails if the no-node draw sequence
        # ever changes shape, which would silently invalidate recorded
        # chaos-test seeds.
        plan = random_fault_plan(42, ["q1", "q2"], horizon=50.0)
        assert plan.describe() == (
            "crash    q1 at 30% progress\n"
            "stall    q1 at t=27.068s for 13.6522s\n"
            "crash    q2 at t=4.68476s\n"
            "stall    q1 at t=22.4498s for 11.4502s"
        )


class TestArrivalBurst:
    def test_valid_synthetic_burst(self):
        from repro.faults.plan import ArrivalBurst

        b = ArrivalBurst(at=5.0, n=10, cost=40.0, spread=2.0)
        assert b.sql is None
        assert b.prefix == "burst"

    def test_validation(self):
        from repro.faults.plan import ArrivalBurst

        with pytest.raises(ValueError):
            ArrivalBurst(at=-1.0, n=5)
        with pytest.raises(ValueError):
            ArrivalBurst(at=0.0, n=0)
        with pytest.raises(ValueError):
            ArrivalBurst(at=0.0, n=5, cost=0.0)
        with pytest.raises(ValueError):
            ArrivalBurst(at=0.0, n=5, spread=-1.0)
        with pytest.raises(ValueError):
            ArrivalBurst(at=0.0, n=5, deadline=0.0)
        with pytest.raises(ValueError):
            ArrivalBurst(at=0.0, n=5, prefix="")

    def test_describe_mentions_the_burst(self):
        from repro.faults.plan import ArrivalBurst, FaultPlan

        plan = FaultPlan.of(ArrivalBurst(at=5.0, n=10, cost=40.0, spread=2.0))
        text = plan.describe()
        assert "burst" in text
        assert "10 x" in text
