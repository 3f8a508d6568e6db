"""The gather path's merged-table cache: build once per content.

A gather query replays its SQL over merged copies of the tables it
references.  The cluster keeps one merged copy per table together with
the fragment rows it was built from, and reuses it only while the rows a
query shipped compare equal to those -- so these tests pin (a) how many
builds a query sequence costs, (b)/(c) that changed or incomparable
content is never served from the cache, (d) that rows shipped by a
replica after a failover hit like any others, and (e) that every replay
still sees a catalog holding exactly its own tables.
"""

import math

import pytest

from repro.dist import (
    BlockPartitioner,
    ClusterFaultInjector,
    ShardedCluster,
    fragment_table,
    load_tpcr,
)
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.errors import CatalogError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.obs import Observability
from repro.workload.tpcr import TpcrConfig, generate

SMALL = TpcrConfig(scale=1 / 8000, seed=0)  # 3000 lineitem rows
PART_SIZES = {1: 4, 2: 3}

GROUP = ("SELECT partkey, SUM(quantity) FROM lineitem "
         "WHERE quantity > {k} GROUP BY partkey ORDER BY partkey")
JOIN = ("SELECT p.partkey, SUM(l.extendedprice) FROM part_{i} p, lineitem l "
        "WHERE p.partkey = l.partkey GROUP BY p.partkey ORDER BY p.partkey")


def build_cluster(**kwargs) -> tuple[ShardedCluster, Observability]:
    obs = Observability()
    cluster = ShardedCluster(
        n_shards=4, replication=2, processing_rate=10.0, obs=obs, **kwargs
    )
    load_tpcr(cluster, config=SMALL, part_sizes=PART_SIZES)
    return cluster, obs


def run(cluster: ShardedCluster, query_id: str, sql: str) -> list[tuple]:
    cluster.submit(query_id, sql)
    cluster.run_to_completion()
    return cluster.result_rows(query_id)


def gather_counts(obs: Observability) -> tuple[int, int]:
    """(tables built, tables reused) so far."""
    m = obs.metrics
    return (int(m.counter_value("dist.gather.tables_built")),
            int(m.counter_value("dist.gather.tables_reused")))


def build_events(obs: Observability) -> list[tuple[str, int, str]]:
    return [
        (e["table"], e["rows"], e["reason"])
        for e in obs.tracer.sink.events if e["event"] == "shard.gather.build"
    ]


class TestBuildCounts:
    def test_same_table_queries_build_it_once(self):
        cluster, obs = build_cluster()
        single = generate(SMALL, part_sizes=PART_SIZES).db
        for k in range(4):  # concurrent: all four finalize in one run
            cluster.submit(f"g{k}", GROUP.format(k=k))
        cluster.run_to_completion()
        for k in range(4):
            assert cluster.result_rows(f"g{k}") == single.query(GROUP.format(k=k))
        assert gather_counts(obs) == (1, 3)
        assert build_events(obs) == [("lineitem", 3000, "first")]

    def test_k_tables_build_k(self):
        cluster, obs = build_cluster()
        single = generate(SMALL, part_sizes=PART_SIZES).db
        sqls = [JOIN.format(i=1), JOIN.format(i=2), GROUP.format(k=3),
                JOIN.format(i=1)]
        for n, sql in enumerate(sqls):
            assert run(cluster, f"q{n}", sql) == single.query(sql)
        # 7 tables adopted over the four queries, 3 distinct.
        assert gather_counts(obs) == (3, 4)
        assert sorted(build_events(obs)) == [
            ("lineitem", 3000, "first"), ("part_1", 40, "first"),
            ("part_2", 30, "first"),
        ]

    def test_pushdown_builds_nothing(self):
        cluster, obs = build_cluster()
        run(cluster, "p", "SELECT partkey FROM lineitem WHERE quantity > 10")
        assert cluster.query("p").strategy == "pushdown"
        assert gather_counts(obs) == (0, 0)


class TestContentValidation:
    def test_changed_fragment_rebuilds_and_is_served(self):
        cluster, obs = build_cluster()
        single = generate(SMALL, part_sizes=PART_SIZES).db
        total = "SELECT SUM(quantity), COUNT(*) FROM lineitem"
        assert run(cluster, "before", total) == single.query(total)
        # Same row count, one value changed, on every replica of shard 2.
        shard, frag = 2, fragment_table("lineitem", 2)
        victim = cluster.nodes["node2"].db.query(
            f"SELECT partkey, extendedprice FROM {frag}"
        )[0]
        where = f"partkey = {victim[0]} AND extendedprice = {victim[1]!r}"
        for node_id in cluster.catalog.replicas_for("lineitem", shard):
            changed = cluster.nodes[node_id].db.execute(
                f"UPDATE {frag} SET quantity = 12345.0 WHERE {where}"
            )
            assert changed >= 1
        single.execute(f"UPDATE lineitem SET quantity = 12345.0 WHERE {where}")
        after = run(cluster, "after", total)
        assert after == single.query(total)
        assert after != cluster.result_rows("before")
        assert gather_counts(obs) == (2, 0)
        assert build_events(obs) == [
            ("lineitem", 3000, "first"), ("lineitem", 3000, "changed"),
        ]
        # Unchanged content from here on: the rebuilt copy is reused.
        assert run(cluster, "again", total) == after
        assert gather_counts(obs) == (2, 1)

    def test_nan_column_is_never_served_from_an_unequal_copy(self):
        # NaN != NaN, but container equality short-cuts on identity: a
        # shipped NaN that is the very object the copy was built from is
        # the same content and hits; any other NaN object rebuilds.
        rows = [(k, float("nan") if k % 5 == 0 else k / 4) for k in range(40)]
        ddl = "CREATE TABLE m (k INT NOT NULL, v FLOAT)"
        obs = Observability()
        cluster = ShardedCluster(n_shards=4, replication=2, obs=obs)
        cluster.create_table("m", ddl, rows, BlockPartitioner())
        single = Database()
        single.execute(ddl)
        single.insert_rows("m", rows)
        single.analyze("m")
        sql = "SELECT k, v FROM m ORDER BY k DESC"
        expected = [repr(r) for r in single.query(sql)]
        assert sum(math.isnan(v) for _, v in single.query(sql)) == 8
        for n in range(2):
            assert [repr(r) for r in run(cluster, f"n{n}", sql)] == expected
        assert gather_counts(obs) == (1, 1)
        # Same values, new float objects (NaN + 0 is another NaN) on every
        # replica of shard 0: equal everywhere except at its two NaNs.
        frag = fragment_table("m", 0)
        for node_id in cluster.catalog.replicas_for("m", 0):
            cluster.nodes[node_id].db.execute(f"UPDATE {frag} SET v = v + 0.0")
        for n in range(2, 4):
            assert [repr(r) for r in run(cluster, f"n{n}", sql)] == expected
        # One rebuild for the new NaN objects, which the next query ships
        # again as they are.
        assert gather_counts(obs) == (2, 2)
        assert build_events(obs) == [("m", 40, "first"), ("m", 40, "changed")]


@pytest.mark.chaos
class TestFailoverHits:
    def test_replica_rows_after_crash_hit_the_cache(self):
        cluster, obs = build_cluster(checkpoint_interval=0.25)
        single = generate(SMALL, part_sizes=PART_SIZES).db
        warm = GROUP.format(k=0)
        assert run(cluster, "warm", warm) == single.query(warm)
        assert gather_counts(obs) == (1, 0)
        sqls = {"g": GROUP.format(k=7), "j": JOIN.format(i=1)}
        for qid, sql in sqls.items():
            cluster.submit(qid, sql)
        crash_at = cluster.clock + 2.0
        ClusterFaultInjector(
            cluster, FaultPlan.of(NodeCrash("node1", at=crash_at))
        ).arm()
        cluster.run_to_completion()
        assert cluster.failovers >= 1
        moved = [
            s for qid in sqls for s in cluster.query(qid).subqueries.values()
            if s.table == "lineitem" and s.attempts > 1
        ]
        assert moved and all(s.node_id != "node1" for s in moved)
        for qid, sql in sqls.items():
            assert cluster.result_rows(qid) == single.query(sql)
        # lineitem came from replicas this time and still hit; only the
        # join's part_1 was new.
        assert gather_counts(obs) == (2, 2)
        assert build_events(obs)[1:] == [("part_1", 40, "first")]


class TestReplayCatalog:
    def test_replay_catalog_holds_exactly_the_query_tables(self, monkeypatch):
        cluster, _ = build_cluster()
        seen: dict[str, list[str]] = {}
        prepare = Database.prepare

        def spy(self, sql, *args, **kwargs):
            seen[sql] = [t.name for t in self.catalog.tables()]
            return prepare(self, sql, *args, **kwargs)

        monkeypatch.setattr(Database, "prepare", spy)
        three = ("SELECT COUNT(*) FROM part_2 b, part_1 a, lineitem l "
                 "WHERE a.partkey = l.partkey AND b.partkey = l.partkey")
        # History order (part_2 first) differs from registration order.
        sqls = [JOIN.format(i=2), JOIN.format(i=1), three, GROUP.format(k=1)]
        for n, sql in enumerate(sqls):
            run(cluster, f"q{n}", sql)
            assert seen[sql] == list(cluster.query(f"q{n}").tables)
        assert seen[sqls[0]] == ["lineitem", "part_2"]
        assert seen[three] == ["lineitem", "part_1", "part_2"]
        assert seen[sqls[3]] == ["lineitem"]

    def test_adopt_table_rejects_duplicates(self):
        source = Database()
        source.execute("CREATE TABLE t (a INT)")
        source.execute("CREATE INDEX t_a ON t (a)")
        table = source.catalog.table("t")
        catalog = Catalog()
        assert catalog.adopt_table(table) is table
        assert catalog.tables() == [table]
        with pytest.raises(CatalogError, match="table 't' already exists"):
            catalog.adopt_table(table)
        other = Database()
        other.execute("CREATE TABLE u (a INT)")
        other.execute("CREATE INDEX t_a ON u (a)")
        with pytest.raises(CatalogError, match="index 't_a' already exists"):
            catalog.adopt_table(other.catalog.table("u"))

    def test_adopting_catalog_sees_mutations(self):
        source = Database()
        source.execute("CREATE TABLE t (a INT)")
        adopter = Database()
        adopter.catalog.adopt_table(source.catalog.table("t"))
        adopter.execute("INSERT INTO t VALUES (1)")
        assert adopter.query("SELECT a FROM t") == [(1,)]
        assert source.query("SELECT a FROM t") == [(1,)]
