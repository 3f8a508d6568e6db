"""Tests for the sharded cluster router: planning, execution, failover."""

import math

import pytest

from repro.dist import (
    BlockPartitioner,
    ShardedCluster,
    fragment_table,
    load_tpcr,
    referenced_tables,
)
from repro.engine import Database
from repro.engine.sql.parser import parse_statement
from repro.workload.tpcr import TpcrConfig

SMALL = TpcrConfig(scale=1 / 8000, seed=0)  # 3000 lineitem rows


def make_cluster(**kwargs) -> ShardedCluster:
    defaults = dict(n_shards=3, replication=2, processing_rate=10.0)
    defaults.update(kwargs)
    cluster = ShardedCluster(**defaults)
    load_tpcr(cluster, config=SMALL, part_sizes={1: 4})
    return cluster


class TestHelpers:
    def test_fragment_table_naming(self):
        assert fragment_table("lineitem", 2) == "lineitem__s2"

    def test_referenced_tables_walks_subqueries(self):
        stmt = parse_statement(
            "SELECT * FROM part_1 p WHERE p.retailprice > "
            "(SELECT SUM(l.extendedprice) FROM lineitem l "
            "WHERE l.partkey = p.partkey)"
        )
        assert referenced_tables(stmt) == {"part_1", "lineitem"}

    def test_referenced_tables_join(self):
        stmt = parse_statement(
            "SELECT * FROM part_1 p JOIN lineitem l ON p.partkey = l.partkey"
        )
        assert referenced_tables(stmt) == {"part_1", "lineitem"}

    def test_referenced_tables_like_pattern_subquery(self):
        stmt = parse_statement(
            "SELECT k FROM t WHERE s LIKE (SELECT min(pat) FROM p)"
        )
        assert referenced_tables(stmt) == {"t", "p"}


#: A LIKE whose pattern is a subquery over a second table.
LIKE_SUBQUERY_SQL = "SELECT k FROM t WHERE s LIKE (SELECT min(pat) FROM p)"
TEXT_TABLES = {
    "t": ("CREATE TABLE t (k INT, s TEXT)",
          [(1, "abc"), (2, "abd"), (3, "xbc"), (4, None), (5, "ab")]),
    "p": ("CREATE TABLE p (k INT, pat TEXT)",
          [(1, "zz%"), (2, "ab%"), (3, "b%")]),
}


class TestPatternSubqueryRouting:
    """A subquery in a LIKE pattern is a table reference like any other."""

    @staticmethod
    def cluster_with(*names) -> ShardedCluster:
        cluster = ShardedCluster(n_shards=2, replication=1)
        for name in names:
            ddl, rows = TEXT_TABLES[name]
            cluster.create_table(name, ddl, rows, BlockPartitioner())
        return cluster

    def test_partitioned_pattern_table_matches_single_node(self):
        single = Database()
        for ddl, rows in TEXT_TABLES.values():
            single.execute(ddl)
            single.insert_rows(ddl.split()[2], rows)
        cluster = self.cluster_with("t", "p")
        dq = cluster.submit("Q", LIKE_SUBQUERY_SQL)
        assert dq.tables == ("t", "p")
        cluster.run_to_completion()
        expected = single.query(LIKE_SUBQUERY_SQL)
        assert expected == [(1,), (2,), (5,)]
        assert cluster.result_rows("Q") == expected

    def test_unpartitioned_pattern_table_rejected_at_submit(self):
        cluster = self.cluster_with("t")
        with pytest.raises(ValueError, match=r"unpartitioned tables: \['p'\]"):
            cluster.submit("Q", LIKE_SUBQUERY_SQL)


class TestDataPlacement:
    def test_fragments_placed_with_replication(self):
        cluster = make_cluster()
        for shard in range(3):
            chain = cluster.catalog.replicas_for("lineitem", shard)
            assert len(chain) == 2
            assert len(set(chain)) == 2  # replicas on distinct nodes
        # Every replica node physically holds the fragment.
        for shard in range(3):
            frag = fragment_table("lineitem", shard)
            for node_id in cluster.catalog.replicas_for("lineitem", shard):
                node = cluster.nodes[node_id]
                assert node.db.catalog.table(frag).heap.row_count > 0

    def test_fragment_rows_sum_to_table(self):
        cluster = make_cluster()
        total = 0
        for shard in range(3):
            frag = fragment_table("lineitem", shard)
            primary = cluster.catalog.primary_for("lineitem", shard)
            total += cluster.nodes[primary].db.catalog.table(frag).heap.row_count
        assert total == 3000

    def test_describe_lists_nodes_and_shards(self):
        text = make_cluster().describe()
        assert "node0" in text and "lineitem" in text


class TestSubmission:
    def test_pushdown_strategy_for_simple_scan(self):
        cluster = make_cluster()
        dq = cluster.submit("Q", "SELECT * FROM lineitem WHERE partkey > 5")
        assert dq.strategy == "pushdown"
        assert len(dq.subqueries) == 3  # one per shard

    def test_gather_strategy_for_joins_and_aggregates(self):
        cluster = make_cluster()
        dq = cluster.submit(
            "Q", "SELECT SUM(extendedprice) FROM lineitem"
        )
        assert dq.strategy == "gather"

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unpartitioned"):
            make_cluster().submit("Q", "SELECT * FROM ghost")

    def test_non_select_rejected(self):
        with pytest.raises(ValueError):
            make_cluster().submit("Q", "CREATE TABLE z (a INT)")

    def test_duplicate_query_id_rejected(self):
        cluster = make_cluster()
        cluster.submit("Q", "SELECT * FROM lineitem")
        with pytest.raises(ValueError):
            cluster.submit("Q", "SELECT * FROM lineitem")


class TestExecution:
    def test_runs_to_completion_with_results(self):
        cluster = make_cluster()
        cluster.submit("Q", "SELECT * FROM lineitem")
        cluster.run_to_completion()
        dq = cluster.query("Q")
        assert dq.finished
        assert len(cluster.result_rows("Q")) == 3000

    def test_estimates_always_finite_throughout(self):
        cluster = make_cluster()
        cluster.submit("Q", "SELECT * FROM lineitem")
        t = 0.0
        while not cluster.query("Q").terminal and t < 500.0:
            t += 1.0
            cluster.run_until(t)
            est = cluster.global_estimate("Q")
            assert math.isfinite(est.remaining_seconds)
            assert est.remaining_seconds >= 0.0

    def test_estimate_decreases_as_work_completes(self):
        cluster = make_cluster()
        cluster.submit("Q", "SELECT * FROM lineitem")
        cluster.run_until(2.0)
        early = cluster.global_estimate("Q").remaining_seconds
        cluster.run_until(6.0)
        later = cluster.global_estimate("Q").remaining_seconds
        if not cluster.query("Q").finished:
            assert later < early

    def test_gather_registers_the_largest_fragment_per_shard(self):
        # A small table registered before a large one: every shard's
        # initial estimate must cover its largest fragment scan, the way
        # _refresh_pi rolls a shard up from its first epoch on.
        cluster = ShardedCluster(n_shards=3, replication=2, processing_rate=10.0)
        cluster.create_table(
            "tiny", "CREATE TABLE tiny (k INT NOT NULL)",
            [(k,) for k in range(6)], BlockPartitioner(),
        )
        cluster.create_table(
            "big", "CREATE TABLE big (k INT NOT NULL, v FLOAT NOT NULL)",
            [(k % 6, k / 2) for k in range(3000)], BlockPartitioner(),
        )
        dq = cluster.submit(
            "Q", "SELECT t.k, SUM(b.v) FROM tiny t, big b WHERE t.k = b.k "
                 "GROUP BY t.k ORDER BY t.k"
        )
        assert dq.tables == ("tiny", "big")
        before_any_epoch = cluster.global_estimate("Q")
        for shard in range(3):
            costs = {
                s.table: s.execution.progress.estimated_remaining_cost() / 10.0
                for s in dq.shard_subqueries(shard)
            }
            assert costs["big"] > costs["tiny"] > 0
            contribution = before_any_epoch.shards[shard]
            assert contribution.remaining_seconds == costs["big"]
            assert not contribution.degraded
        assert before_any_epoch.remaining_seconds >= max(
            s.execution.progress.estimated_remaining_cost() / 10.0
            for s in dq.subqueries.values()
        )
        cluster.run_to_completion()
        assert len(cluster.result_rows("Q")) == 6

    def test_work_tallies_zero_without_faults(self):
        cluster = make_cluster()
        cluster.submit("Q", "SELECT * FROM lineitem")
        cluster.run_to_completion()
        assert cluster.failovers == 0
        assert cluster.work_preserved == 0.0
        assert cluster.work_lost == 0.0


class TestFailover:
    def test_crash_fails_over_to_replica(self):
        cluster = make_cluster(checkpoint_interval=0.5)
        cluster.submit("Q", "SELECT * FROM lineitem")
        cluster.run_until(1.0)
        victim = cluster.nodes["node1"]
        cluster.catalog.mark_down("node1")
        victim.crash()
        cluster.run_to_completion()
        dq = cluster.query("Q")
        assert dq.finished
        assert cluster.failovers >= 1
        # The failed-over sub-queries ended up off the dead node.
        for sub in dq.subqueries.values():
            assert sub.node_id != "node1"

    def test_submit_on_downed_node_raises(self):
        cluster = make_cluster()
        cluster.catalog.mark_down("node0")
        cluster.nodes["node0"].crash()
        with pytest.raises(RuntimeError):
            from repro.sim.jobs import SyntheticJob

            cluster.nodes["node0"].submit(SyntheticJob("x", 10.0))

    def test_no_replica_left_gives_up(self):
        cluster = make_cluster(replication=1)
        cluster.submit("Q", "SELECT * FROM lineitem")
        cluster.run_until(1.0)
        cluster.catalog.mark_down("node1")
        cluster.nodes["node1"].crash()
        # Shard 1 has a single replica: with it gone the query can never
        # finish; the router must eventually give up rather than hang.
        cluster.run_until(200.0)
        dq = cluster.query("Q")
        assert dq.status == "failed"
        assert dq.error

    def test_crash_idempotent(self):
        cluster = make_cluster()
        node = cluster.nodes["node2"]
        node.crash()
        assert node.crash() == ()


class TestBrownout:
    def test_browned_out_node_slows_down(self):
        fast = make_cluster()
        fast.submit("Q", "SELECT * FROM lineitem")
        fast.run_to_completion()
        slow = make_cluster()
        slow.nodes["node0"].set_brownout(0.25)
        slow.submit("Q", "SELECT * FROM lineitem")
        slow.run_to_completion()
        assert (
            slow.query("Q").finished_at > fast.query("Q").finished_at
        )

    def test_clear_brownout_restores_rate(self):
        cluster = make_cluster()
        node = cluster.nodes["node0"]
        node.set_brownout(0.5)
        assert node.brownout_factor == 0.5
        node.clear_brownout()
        assert node.brownout_factor == 1.0
