"""Cluster chaos acceptance gate (run with ``-m chaos``).

The PR's robustness contract, executed literally: a seeded node crash on
a 4-shard cluster must leave every distributed query finishing with
results byte-identical to a no-fault single-node run, with at least 80%
of checkpointed work preserved across failover, a global PI that is
never NaN/inf at any epoch, and degraded flags on the shards the dead
node was serving while they were down.
"""

import math

import pytest

from repro.engine.executor import QueryExecution
from repro.engine.operators.base import Operator
from repro.dist import (
    ClusterFaultInjector,
    ShardedCluster,
    load_tpcr,
)
from repro.faults.plan import FaultPlan, NetworkPartition, NodeCrash
from repro.workload.tpcr import TpcrConfig, generate

pytestmark = pytest.mark.chaos

SMALL = TpcrConfig(scale=1 / 8000, seed=0)
PART_SIZES = {1: 4}

QUERIES = {
    "scan": "SELECT * FROM lineitem",
    "filter": "SELECT * FROM lineitem WHERE partkey > 5",
    "group": "SELECT partkey, SUM(quantity) FROM lineitem "
             "GROUP BY partkey ORDER BY partkey",
    "join": "SELECT p.partkey, SUM(l.extendedprice) FROM part_1 p, "
            "lineitem l WHERE p.partkey = l.partkey "
            "GROUP BY p.partkey ORDER BY p.partkey",
}


def build_cluster() -> ShardedCluster:
    # Small checkpoint interval: the work-preservation floor below is a
    # direct function of checkpoint cadence vs node throughput.
    cluster = ShardedCluster(
        n_shards=4, replication=2, processing_rate=10.0,
        checkpoint_interval=0.25,
    )
    load_tpcr(cluster, config=SMALL, part_sizes=PART_SIZES)
    return cluster


class TestSingleNodeCrashGate:
    """The acceptance checklist for one seeded mid-flight node crash."""

    @pytest.fixture(scope="class")
    def run(self):
        cluster = build_cluster()
        for qid, sql in QUERIES.items():
            cluster.submit(qid, sql)
        injector = ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=2.0))
        )
        injector.arm()
        pi_trace = []  # (time, {qid: estimate}) at every sampled epoch
        t = 0.0
        while not all(dq.terminal for dq in cluster.queries().values()):
            t += 0.5
            assert t < 2000.0, "cluster failed to quiesce"
            cluster.run_until(t)
            pi_trace.append((t, cluster.estimates()))
        return cluster, injector, pi_trace

    def test_every_query_finishes(self, run):
        cluster, _, _ = run
        for qid in QUERIES:
            assert cluster.query(qid).finished, cluster.query(qid).error

    def test_results_byte_identical_to_single_node(self, run):
        cluster, _, _ = run
        single = generate(SMALL, part_sizes=PART_SIZES).db
        for qid, sql in QUERIES.items():
            assert cluster.result_rows(qid) == single.query(sql)

    def test_at_least_80_percent_work_preserved(self, run):
        cluster, _, _ = run
        assert cluster.failovers >= 1
        total = cluster.work_preserved + cluster.work_lost
        assert total > 0.0
        assert cluster.work_preserved / total >= 0.80

    def test_global_pi_never_nan_or_inf(self, run):
        _, _, pi_trace = run
        assert pi_trace
        for _t, estimates in pi_trace:
            for est in estimates.values():
                assert math.isfinite(est.remaining_seconds)
                assert est.remaining_seconds >= 0.0
                for contrib in est.shards.values():
                    assert math.isfinite(contrib.remaining_seconds)
                    assert math.isfinite(contrib.staleness)

    def test_affected_shards_flagged_degraded_while_down(self, run):
        cluster, injector, pi_trace = run
        assert injector.log  # the crash actually fired
        crash_time = injector.log[0].time
        # In the epochs right after the crash, at least one query shows a
        # degraded (carried-back) shard contribution.
        after = [
            estimates for t, estimates in pi_trace
            if t >= crash_time
        ]
        assert any(
            contrib.degraded
            for estimates in after[:8]
            for est in estimates.values()
            for contrib in est.shards.values()
        )


class TestSeededPartitionChaos:
    def test_partition_storm_all_queries_finish_identical(self):
        cluster = build_cluster()
        for qid, sql in QUERIES.items():
            cluster.submit(qid, sql)
        plan = FaultPlan.of(
            NetworkPartition("node0", at=1.0, duration=3.0),
            NetworkPartition("node2", at=2.5, duration=2.0),
            NodeCrash("node3", at=4.0, down_for=10.0),
        )
        ClusterFaultInjector(cluster, plan).arm()
        t = 0.0
        while not all(dq.terminal for dq in cluster.queries().values()):
            t += 0.5
            assert t < 2000.0, "cluster failed to quiesce"
            cluster.run_until(t)
            for est in cluster.estimates().values():
                assert math.isfinite(est.remaining_seconds)
        single = generate(SMALL, part_sizes=PART_SIZES).db
        for qid, sql in QUERIES.items():
            assert cluster.query(qid).finished, cluster.query(qid).error
            assert cluster.result_rows(qid) == single.query(sql)

    @pytest.mark.parametrize("victim", ["node0", "node1", "node2", "node3"])
    def test_any_single_node_crash_recovers(self, victim):
        cluster = build_cluster()
        cluster.submit("Q", QUERIES["scan"])
        ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash(victim, at=1.5))
        ).arm()
        cluster.run_to_completion(max_time=2000.0)
        single = generate(SMALL, part_sizes=PART_SIZES).db
        assert cluster.query("Q").finished
        assert cluster.result_rows("Q") == single.query(QUERIES["scan"])


class TestTwoHopFailoverOnALongScan:
    """A high-output scan crashes twice; checkpoints stay their prefix.

    At the cluster's default cadence (2 U) a 6 000-row-per-shard scan takes
    dozens of checkpoints per attempt.  The primary dies after three, the
    replica that resumed dies after checkpointing again, and a third node
    finishes from the second attempt's checkpoint.
    """

    CONFIG = TpcrConfig(scale=1 / 1000, seed=0)
    SQL = "SELECT * FROM lineitem"

    @pytest.fixture(scope="class")
    def run(self):
        cluster = ShardedCluster(
            n_shards=4, replication=3, processing_rate=10.0,
            checkpoint_interval=2.0,
        )
        load_tpcr(cluster, config=self.CONFIG, part_sizes=PART_SIZES)
        dq = cluster.submit("Q", self.SQL)
        sub = next(s for s in dq.subqueries.values() if s.shard == 0)
        dead = []  # (execution, its last checkpoint when the node died)
        t = 0.0
        while not dq.terminal:
            t += 0.5
            assert t < 2000.0, "cluster failed to quiesce"
            cluster.run_until(t)
            ex = sub.execution
            wanted = 3 if not dead else 1  # the replica: "checkpointed again"
            if (
                len(dead) < 2 and sub.status == "running"
                and all(ex is not d for d, _ in dead)
                and ex.checkpoints_taken >= wanted
            ):
                ClusterFaultInjector(cluster, FaultPlan.of(
                    NodeCrash(sub.node_id, at=cluster.clock + 0.01)
                )).arm()
                cluster.run_until(cluster.clock + 0.02)
                dead.append((ex, ex.last_checkpoint))
        return cluster, sub, dead

    def test_scan_is_long_and_both_hops_happened(self, run):
        cluster, sub, dead = run
        assert len(dead) == 2 and sub.attempts == 3
        assert all(len(s.rows) >= 5000
                   for s in cluster.query("Q").subqueries.values())

    def test_result_byte_identical_to_single_node(self, run):
        cluster, _, _ = run
        single = generate(self.CONFIG, part_sizes=PART_SIZES).db
        assert cluster.query("Q").finished, cluster.query("Q").error
        assert cluster.result_rows("Q") == single.query(self.SQL)

    def test_work_preserved_on_both_hops(self, run):
        _, sub, dead = run
        (_, first_ckpt), (second, second_ckpt) = dead
        # Each successor resumed from its predecessor's last checkpoint.
        assert second.restored_from is first_ckpt
        assert sub.execution.restored_from is second_ckpt
        assert 0 < first_ckpt.work_done < second_ckpt.work_done
        assert 0 < first_ckpt.rows_emitted < second_ckpt.rows_emitted
        # ...and each checkpoint still is the prefix it was taken at, after
        # its own attempt and both successors appended past it.
        final = tuple(sub.execution.rows)
        for ckpt in (first_ckpt, second_ckpt):
            assert ckpt.rows == final[: ckpt.rows_emitted]

    def test_survivor_holds_row_data_not_dead_executions(self, run):
        """What the survivor's checkpoints keep of the dead attempts is
        their row log -- plain tuples -- never an execution or operator."""
        _, sub, dead = run
        survivor = sub.execution
        stack = [survivor.restored_from, survivor.last_checkpoint]
        seen = set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (str, int, float, type(None))):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (QueryExecution, Operator))
            if isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            elif hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
        # One hop deep, not a chain: the survivor does not reach the first
        # attempt's checkpoint through the second's.
        assert id(dead[0][1]) not in seen
