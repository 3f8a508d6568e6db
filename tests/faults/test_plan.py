"""Tests for declarative node-fault plans and their validation."""

import pytest

from repro.faults.plan import (
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    random_fault_plan,
)

NODES = ["node0", "node1", "node2", "node3"]


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
        plan = FaultPlan.of(
            NodeBrownout("node0", at=0.0, duration=1.0),
            NodeCrash("node1", at=1.0),
        )
        assert len(plan) == 2

    def test_rejects_non_faults(self):
        with pytest.raises(ValueError):
            FaultPlan(faults=("not a fault",))

    def test_describe_empty(self):
        assert "empty" in FaultPlan().describe()

    def test_for_node(self):
        crash = NodeCrash("node1", at=3.0)
        part = NetworkPartition("node2", at=1.0, duration=2.0)
        plan = FaultPlan.of(crash, part)
        assert plan.for_node("node1") == (crash,)
        assert plan.for_node("node2") == (part,)
        assert plan.for_node("node9") == ()

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
        a = random_fault_plan(3, NODES, horizon=50.0)
        b = random_fault_plan(3, NODES, horizon=50.0)
        assert a == b

    def test_different_seeds_differ(self):
        plans = {
            random_fault_plan(s, NODES, horizon=50.0, n_faults=6)
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
            random_fault_plan(0, ["node0"], 0.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, ["node0"], 10.0, n_faults=-1)

    def test_every_shape_drawn_on_the_given_nodes(self):
        seen = set()
        for seed in range(30):
            plan = random_fault_plan(seed, ["node0", "node1"], 50.0, n_faults=6)
            seen.update(type(f) for f in plan.faults)
            for fault in plan.faults:
                assert fault.node_id in ("node0", "node1")
        assert seen == {NodeCrash, NetworkPartition, NodeBrownout}

    def test_cli_seeds_reach_every_shape(self):
        # `repro shard --seed 1/2/3` (and the traffic census, which runs
        # those three) must together drive a permanent and a recovering
        # crash, a partition and a brownout.
        faults = [
            f for seed in (1, 2, 3)
            for f in random_fault_plan(seed, NODES, horizon=10.0).faults
        ]
        crashes = [f for f in faults if isinstance(f, NodeCrash)]
        assert any(f.down_for is None for f in crashes)
        assert any(f.down_for is not None for f in crashes)
        assert any(isinstance(f, NetworkPartition) for f in faults)
        assert any(isinstance(f, NodeBrownout) for f in faults)

    def test_seed_42_plan_is_byte_stable(self):
        # Pinned golden description: fails if the draw sequence ever
        # changes shape, which would silently invalidate recorded
        # chaos-test seeds.
        plan = random_fault_plan(42, ["node0", "node1"], horizon=50.0)
        assert plan.describe() == (
            "node-brownout node0 x0.25 at t=1.00043s for 5.93787s\n"
            "node-crash node0 at t=35.6872s, permanent\n"
            "node-crash node1 at t=9.30644s, back after 6.8739s\n"
            "node-brownout node0 x0.75 at t=22.4498s for 11.4502s"
        )
