"""Tests for plan shapes and cost annotations."""

import pytest

from repro.engine import Database
from repro.engine.errors import PlanError
from repro.engine.operators.joins import HashJoin, NestedLoopJoin
from repro.engine.operators.scans import IndexScan, SeqScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.transforms import Distinct, Filter, Limit

from tests.engine.helpers import undecorrelated


@pytest.fixture()
def db():
    d = Database(page_capacity=10)
    d.execute("CREATE TABLE a (k INT, v FLOAT)")
    d.insert_rows("a", [(i, float(i)) for i in range(100)])
    d.execute("CREATE TABLE b (k INT, w FLOAT)")
    d.insert_rows("b", [(i % 20, float(i)) for i in range(200)])
    d.execute("CREATE INDEX b_k ON b (k)")
    d.analyze()
    return d


def find_ops(root, cls):
    found = []

    def walk(op):
        if isinstance(op, cls):
            found.append(op)
        for child in op.children():
            walk(child)

    walk(root)
    return found


class TestAccessPaths:
    def test_seq_scan_without_predicate(self, db):
        root = db.prepare("SELECT * FROM a").root
        assert find_ops(root, SeqScan)

    def test_index_scan_for_equality_on_indexed_column(self, db):
        root = db.prepare("SELECT * FROM b WHERE k = 5").root
        assert find_ops(root, IndexScan)
        assert not find_ops(root, SeqScan)

    def test_no_index_scan_for_range(self, db):
        root = db.prepare("SELECT * FROM b WHERE k > 5").root
        assert not find_ops(root, IndexScan)

    def test_no_index_scan_when_probe_depends_on_same_table(self, db):
        root = db.prepare("SELECT * FROM b WHERE k = k").root
        assert not find_ops(root, IndexScan)

    def test_pushed_filter_below_joins(self, db):
        root = db.prepare(
            "SELECT * FROM a JOIN b ON a.k = b.k WHERE a.v > 50"
        ).root
        joins = find_ops(root, HashJoin)
        assert joins
        filters = find_ops(joins[0], Filter)
        assert filters, "single-table predicate should be pushed below the join"

    def test_index_scan_in_correlated_subquery(self, db):
        # The per-row subplan path (decorrelation off) costs the
        # subquery per outer row; this stays as the fallback for queries
        # the rewrite cannot prove safe.
        root = undecorrelated(db).prepare(
            "SELECT * FROM a WHERE a.v > "
            "(SELECT sum(b.w) FROM b WHERE b.k = a.k)"
        ).root
        # The subquery plan is held by the filter closure; check the
        # estimated cost reflects per-row subquery work instead.
        filters = find_ops(root, Filter)
        assert filters
        scan = find_ops(root, SeqScan)[0]
        assert root.est_cost > scan.est_cost * 5

    def test_correlated_subquery_decorrelates_by_default(self, db):
        sql = (
            "SELECT * FROM a WHERE a.v > "
            "(SELECT sum(b.w) FROM b WHERE b.k = a.k)"
        )
        root = db.prepare(sql).root
        # The rewrite turns the correlated filter into a grouped LEFT
        # hash join, far cheaper than the per-row replan...
        joins = find_ops(root, HashJoin)
        assert joins and joins[0].left_outer
        fallback = undecorrelated(db).prepare(sql)
        assert root.est_cost < fallback.root.est_cost
        # ...and both shapes return the same rows.
        assert db.query(sql) == fallback.run_to_completion()


class TestJoinStrategies:
    def test_equi_join_becomes_hash_join(self, db):
        root = db.prepare("SELECT * FROM a JOIN b ON a.k = b.k").root
        assert find_ops(root, HashJoin)
        assert not find_ops(root, NestedLoopJoin)

    def test_comma_join_with_where_becomes_hash_join(self, db):
        root = db.prepare("SELECT * FROM a, b WHERE a.k = b.k").root
        assert find_ops(root, HashJoin)

    def test_cross_join_is_nested_loop(self, db):
        root = db.prepare("SELECT * FROM a CROSS JOIN b").root
        assert find_ops(root, NestedLoopJoin)

    def test_non_equi_join_is_nested_loop(self, db):
        root = db.prepare("SELECT * FROM a JOIN b ON a.k < b.k").root
        assert find_ops(root, NestedLoopJoin)


class TestPlanAnnotations:
    def test_costs_monotone_up_the_tree(self, db):
        root = db.prepare(
            "SELECT k, count(*) FROM b WHERE w > 10 GROUP BY k ORDER BY k"
        ).root

        def check(op):
            for child in op.children():
                assert op.est_cost >= child.est_cost - 1e-9
                check(child)

        check(root)

    def test_seq_scan_estimate_equals_pages(self, db):
        root = db.prepare("SELECT * FROM a").root
        scan = find_ops(root, SeqScan)[0]
        assert scan.est_cost == db.catalog.table("a").heap.page_count
        assert scan.est_rows == 100

    def test_sort_and_limit_nodes_present(self, db):
        root = db.prepare("SELECT * FROM a ORDER BY v LIMIT 3").root
        assert find_ops(root, Sort)
        assert isinstance(root, Limit)

    def test_distinct_node(self, db):
        root = db.prepare("SELECT DISTINCT k FROM b").root
        assert find_ops(root, Distinct)

    def test_explain_includes_all_nodes(self, db):
        text = db.explain("SELECT DISTINCT a.k FROM a JOIN b ON a.k = b.k "
                          "WHERE a.v > 2 ORDER BY a.k LIMIT 5")
        for fragment in ("HashJoin", "SeqScan", "Distinct", "Sort", "Limit"):
            assert fragment in text


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(Exception):
            db.prepare("SELECT * FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(PlanError):
            db.prepare("SELECT zzz FROM a")

    def test_star_with_unknown_alias(self, db):
        with pytest.raises(PlanError):
            db.prepare("SELECT x.* FROM a")

    def test_distinct_with_hidden_order_column(self, db):
        with pytest.raises(PlanError):
            db.prepare("SELECT DISTINCT k FROM a ORDER BY v")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(PlanError):
            db.prepare("SELECT k FROM a WHERE sum(v) > 1")
