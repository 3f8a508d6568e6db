"""Cluster-side circuit breakers and overload acceptance (-m overload).

The router wires a :class:`~repro.qos.breaker.BreakerBoard` into routing
and failover: consecutive sub-query failures on a node trip its breaker
open, routing prefers replicas with closed breakers, and failover retry
delays stretch to the breaker cooldown while every replica is refusing.
The storm acceptance test at the bottom combines a node crash with an
arrival burst of distributed queries.
"""

import math

import pytest

from repro.dist import ClusterFaultInjector, ShardedCluster, load_tpcr
from repro.faults.plan import FaultPlan, NodeCrash
from repro.qos.breaker import FAILURE_THRESHOLD
from repro.sim.arrivals import burst_arrival_times
from repro.workload.tpcr import TpcrConfig, generate

SMALL = TpcrConfig(scale=1 / 8000, seed=0)
PART_SIZES = {1: 4}


def build_cluster(**kwargs) -> ShardedCluster:
    defaults = dict(
        n_shards=4, replication=2, processing_rate=10.0,
        checkpoint_interval=0.25,
    )
    defaults.update(kwargs)
    cluster = ShardedCluster(**defaults)
    load_tpcr(cluster, config=SMALL, part_sizes=PART_SIZES)
    return cluster


def run_to_quiescence(cluster, step=0.5, limit=2000.0):
    t = cluster.clock
    while not all(dq.terminal for dq in cluster.queries().values()):
        t += step
        assert t < limit, "cluster failed to quiesce"
        cluster.run_until(t)


class TestBreakerWiring:
    def test_cluster_has_a_breaker_per_node_lazily(self):
        cluster = build_cluster()
        b = cluster.breakers.for_node("node0")
        assert b.state == "closed"
        assert cluster.breakers.for_node("node0") is b

    def test_node_crash_trips_the_breaker(self):
        cluster = build_cluster()
        # FAILURE_THRESHOLD multi-shard queries put that many sub-queries
        # on every node; the crash fails them all at once, and the
        # breaker opens on the last of those consecutive failures.
        for i in range(FAILURE_THRESHOLD):
            dq = cluster.submit(f"q{i}", "SELECT * FROM lineitem")
            assert [s.node_id for s in dq.subqueries.values()].count(
                "node1"
            ) == 1
        breaker = cluster.breakers.for_node("node1")
        ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=1.0))
        ).arm()
        cluster.run_until(0.9)
        assert breaker.state == "closed"
        cluster.run_until(1.5)
        assert breaker.state == "open"
        assert "node1" in cluster.breakers.open_nodes()
        [trip] = breaker.transitions
        assert trip.reason.startswith(
            f"{FAILURE_THRESHOLD} consecutive failures"
        )

    def test_routing_skips_an_open_breaker(self):
        cluster = build_cluster()
        # Trip node0's breaker by hand, then scatter a query: no fresh
        # sub-query may land on node0 while a closed-breaker replica
        # exists for its shards.
        for _ in range(FAILURE_THRESHOLD):
            cluster.breakers.for_node("node0").record_failure(cluster.clock)
        dq = cluster.submit("q0", "SELECT * FROM lineitem")
        placed = {sub.node_id for sub in dq.subqueries.values()}
        assert "node0" not in placed

    def test_queries_survive_crash_with_breakers_on(self):
        cluster = build_cluster()
        for i in range(3):
            cluster.submit(f"q{i}", "SELECT * FROM lineitem")
        ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=1.0))
        ).arm()
        run_to_quiescence(cluster)
        single = generate(SMALL, part_sizes=PART_SIZES).db
        expected = single.query("SELECT * FROM lineitem")
        for i in range(3):
            assert cluster.query(f"q{i}").finished
            assert cluster.result_rows(f"q{i}") == expected


class TestDistPiGauges:
    def test_staleness_and_degraded_gauges_published(self):
        from repro.obs import Observability

        obs = Observability()
        cluster = build_cluster(obs=obs)
        cluster.submit("q0", "SELECT * FROM lineitem")
        ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=1.0))
        ).arm()
        cluster.run_until(0.5)
        # Healthy: nothing degraded, nothing stale.
        assert obs.metrics.gauge("dist.pi.degraded_shards").value == 0
        assert obs.metrics.gauge("dist.pi.staleness_max").value == 0.0
        cluster.run_until(1.2)
        # Right after the crash at least one shard is carried back; its
        # staleness is visible in the gauge without walking snapshots.
        assert obs.metrics.gauge("dist.pi.degraded_shards").value >= 1
        assert obs.metrics.gauge("dist.pi.staleness_max").value > 0.0
        run_to_quiescence(cluster)
        assert obs.metrics.gauge("dist.pi.degraded_shards").value == 0

    def test_gauges_match_aggregator_accessors(self):
        cluster = build_cluster()
        agg = cluster.aggregator
        assert agg.degraded_count() == 0
        assert agg.max_staleness(0.0) == 0.0
        agg.register("q", 0, 5.0, now=1.0)
        agg.mark_degraded("q", 0)
        assert agg.degraded_count() == 1
        assert agg.max_staleness(4.0) == pytest.approx(3.0)
        agg.mark_done("q", 0, now=5.0)
        assert agg.degraded_count() == 0
        assert agg.max_staleness(9.0) == 0.0


@pytest.mark.overload
class TestStormAcceptance:
    """A node crash during an arrival burst: >= 80% work preserved."""

    BURST_SQL = (
        "SELECT partkey, SUM(quantity) FROM lineitem "
        "GROUP BY partkey ORDER BY partkey"
    )

    @pytest.fixture(scope="class")
    def run(self):
        cluster = build_cluster()
        for i in range(2):
            cluster.submit(f"base{i}", "SELECT * FROM lineitem")
        # Six gather queries jittered over [0.5, 1.5] s, submitted through
        # the router by timer events on one node (the cluster advances
        # every node's clock in lockstep).
        timer = cluster.nodes["node0"].rdbms
        for i, t in enumerate(burst_arrival_times(0.5, 6, spread=1.0)):
            timer.add_event(
                t, lambda _r, i=i: cluster.submit(f"burst{i}", self.BURST_SQL)
            )
        injector = ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=2.0, down_for=15.0))
        )
        injector.arm()
        pi_trace = []
        t = 0.0
        while not all(dq.terminal for dq in cluster.queries().values()):
            t += 0.5
            assert t < 2000.0, "cluster failed to quiesce"
            cluster.run_until(t)
            pi_trace.append(cluster.estimates())
        return cluster, injector, pi_trace

    def test_storm_fired_and_crash_fired(self, run):
        cluster, injector, _ = run
        assert {f"burst{i}" for i in range(6)} <= set(cluster.queries())
        assert "node-crash" in [e.kind for e in injector.log]

    def test_every_query_finishes_correctly(self, run):
        cluster, _, _ = run
        single = generate(SMALL, part_sizes=PART_SIZES).db
        for qid, dq in cluster.queries().items():
            assert dq.finished, f"{qid}: {dq.error}"
            assert cluster.result_rows(qid) == single.query(dq.sql)

    def test_at_least_80_percent_work_preserved(self, run):
        cluster, _, _ = run
        assert cluster.failovers >= 1
        total = cluster.work_preserved + cluster.work_lost
        assert total > 0.0
        assert cluster.work_preserved / total >= 0.80

    def test_global_pi_finite_at_every_epoch(self, run):
        _, _, pi_trace = run
        assert pi_trace
        for estimates in pi_trace:
            for est in estimates.values():
                assert math.isfinite(est.remaining_seconds)
                for contrib in est.shards.values():
                    assert math.isfinite(contrib.remaining_seconds)
                    assert math.isfinite(contrib.staleness)
