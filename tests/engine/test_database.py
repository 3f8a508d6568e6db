"""End-to-end SQL tests through the Database facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.errors import CatalogError, ExecutionError, PlanError, SqlTypeError


@pytest.fixture()
def db():
    d = Database(page_capacity=4)
    d.execute("CREATE TABLE nums (k INT, v FLOAT, tag TEXT)")
    d.insert_rows("nums", [
        (1, 10.0, "a"), (2, 20.0, "b"), (3, 30.0, "a"),
        (4, 40.0, None), (5, 50.0, "b"), (6, None, "c"),
    ])
    return d


class TestBasicQueries:
    def test_select_star(self, db):
        rows = db.query("SELECT * FROM nums")
        assert len(rows) == 6
        assert rows[0] == (1, 10.0, "a")

    def test_projection_and_filter(self, db):
        rows = db.query("SELECT k FROM nums WHERE v > 25")
        assert rows == [(3,), (4,), (5,)]

    def test_expressions(self, db):
        rows = db.query("SELECT k * 2 + 1 FROM nums WHERE k = 2")
        assert rows == [(5,)]

    def test_null_filtering(self, db):
        assert db.query("SELECT k FROM nums WHERE tag IS NULL") == [(4,)]
        assert len(db.query("SELECT k FROM nums WHERE tag IS NOT NULL")) == 5
        # NULL comparisons exclude rows.
        assert db.query("SELECT k FROM nums WHERE v > 1000 OR v IS NULL") == [(6,)]

    def test_order_by(self, db):
        rows = db.query("SELECT k FROM nums WHERE v IS NOT NULL ORDER BY v DESC")
        assert rows == [(5,), (4,), (3,), (2,), (1,)]

    def test_order_by_position(self, db):
        rows = db.query("SELECT k, v FROM nums WHERE v IS NOT NULL ORDER BY 2 DESC")
        assert [r[0] for r in rows] == [5, 4, 3, 2, 1]
        from repro.engine.errors import PlanError

        with pytest.raises(PlanError):
            db.query("SELECT k FROM nums ORDER BY 2")
        with pytest.raises(PlanError):
            db.query("SELECT k FROM nums ORDER BY 0")

    def test_order_by_alias_and_expression(self, db):
        rows = db.query("SELECT k, v * -1 AS neg FROM nums WHERE k <= 3 ORDER BY neg")
        assert [r[0] for r in rows] == [3, 2, 1]
        rows = db.query("SELECT k FROM nums WHERE k <= 3 ORDER BY v * -1")
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_limit_offset(self, db):
        rows = db.query("SELECT k FROM nums ORDER BY k LIMIT 2 OFFSET 1")
        assert rows == [(2,), (3,)]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT tag FROM nums WHERE tag IS NOT NULL ORDER BY tag")
        assert rows == [("a",), ("b",), ("c",)]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1, 'x'") == [(2, "x")]

    def test_like(self, db):
        assert db.query("SELECT k FROM nums WHERE tag LIKE 'a%'") == [(1,), (3,)]


class TestAggregates:
    def test_global_aggregates(self, db):
        rows = db.query("SELECT count(*), count(v), sum(v), min(v), max(v), avg(v) FROM nums")
        assert rows == [(6, 5, 150.0, 10.0, 50.0, 30.0)]

    def test_group_by(self, db):
        rows = db.query(
            "SELECT tag, count(*) n FROM nums WHERE tag IS NOT NULL "
            "GROUP BY tag ORDER BY tag"
        )
        assert rows == [("a", 2), ("b", 2), ("c", 1)]

    def test_having(self, db):
        rows = db.query(
            "SELECT tag, count(*) n FROM nums GROUP BY tag HAVING count(*) >= 2 "
            "ORDER BY tag"
        )
        assert rows == [("a", 2), ("b", 2)]

    def test_aggregate_on_empty_input(self, db):
        rows = db.query("SELECT count(*), sum(v) FROM nums WHERE k > 99")
        assert rows == [(0, None)]

    def test_group_by_on_empty_input(self, db):
        rows = db.query("SELECT tag, count(*) FROM nums WHERE k > 99 GROUP BY tag")
        assert rows == []

    def test_count_distinct(self, db):
        rows = db.query("SELECT count(DISTINCT tag) FROM nums")
        assert rows == [(3,)]

    def test_aggregate_expression(self, db):
        rows = db.query("SELECT sum(v) / count(v) FROM nums")
        assert rows == [(30.0,)]

    def test_group_by_expression(self, db):
        rows = db.query(
            "SELECT k % 2, count(*) FROM nums GROUP BY k % 2 ORDER BY k % 2"
        )
        assert rows == [(0, 3), (1, 3)]

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT v, count(*) FROM nums GROUP BY tag")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT sum(count(*)) FROM nums")


class TestJoins:
    @pytest.fixture()
    def jdb(self, db):
        db.execute("CREATE TABLE names (k INT, name TEXT)")
        db.insert_rows("names", [(1, "one"), (2, "two"), (7, "seven")])
        return db

    def test_inner_join(self, jdb):
        rows = jdb.query(
            "SELECT n.k, names.name FROM nums n JOIN names ON n.k = names.k "
            "ORDER BY n.k"
        )
        assert rows == [(1, "one"), (2, "two")]

    def test_comma_join_with_where(self, jdb):
        rows = jdb.query(
            "SELECT n.k, m.name FROM nums n, names m WHERE n.k = m.k ORDER BY n.k"
        )
        assert rows == [(1, "one"), (2, "two")]

    def test_cross_join(self, jdb):
        rows = jdb.query("SELECT count(*) FROM nums CROSS JOIN names")
        assert rows == [(18,)]

    def test_join_with_extra_filters(self, jdb):
        rows = jdb.query(
            "SELECT n.k FROM nums n JOIN names m ON n.k = m.k WHERE n.v > 15"
        )
        assert rows == [(2,)]

    def test_non_equi_join(self, jdb):
        rows = jdb.query(
            "SELECT count(*) FROM nums n JOIN names m ON n.k < m.k"
        )
        # pairs with n.k < m.k: m.k=2 (k=1), m.k=7 (k=1..6): 1 + 6 = 7
        assert rows == [(7,)]

    def test_self_join(self, jdb):
        rows = jdb.query(
            "SELECT a.k, b.k FROM names a JOIN names b ON a.k = b.k"
        )
        assert len(rows) == 3


class TestSubqueries:
    def test_uncorrelated_scalar(self, db):
        rows = db.query("SELECT k FROM nums WHERE v > (SELECT avg(v) FROM nums)")
        assert rows == [(4,), (5,)]

    def test_correlated_scalar(self, db):
        db.execute("CREATE TABLE pairs (k INT, w FLOAT)")
        db.insert_rows("pairs", [(1, 5.0), (1, 15.0), (2, 100.0)])
        rows = db.query(
            "SELECT k FROM nums n WHERE n.v > "
            "(SELECT sum(p.w) FROM pairs p WHERE p.k = n.k)"
        )
        # k=1: 10 > 20? no. k=2: 20 > 100? no. k>=3: NULL comparison -> no.
        assert rows == []
        rows = db.query(
            "SELECT k FROM nums n WHERE n.v >= "
            "(SELECT sum(p.w) FROM pairs p WHERE p.k = n.k) / 2"
        )
        assert rows == [(1,)]

    def test_exists(self, db):
        db.execute("CREATE TABLE flags (k INT)")
        db.insert_rows("flags", [(2,), (4,)])
        rows = db.query(
            "SELECT k FROM nums n WHERE EXISTS "
            "(SELECT 1 FROM flags f WHERE f.k = n.k)"
        )
        assert rows == [(2,), (4,)]
        rows = db.query(
            "SELECT count(*) FROM nums n WHERE NOT EXISTS "
            "(SELECT 1 FROM flags f WHERE f.k = n.k)"
        )
        assert rows == [(4,)]

    def test_in_subquery(self, db):
        db.execute("CREATE TABLE flags (k INT)")
        db.insert_rows("flags", [(1,), (3,)])
        assert db.query(
            "SELECT k FROM nums WHERE k IN (SELECT k FROM flags)"
        ) == [(1,), (3,)]
        assert db.query(
            "SELECT count(*) FROM nums WHERE k NOT IN (SELECT k FROM flags)"
        ) == [(4,)]

    def test_scalar_subquery_multiple_rows_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT k FROM nums WHERE v > (SELECT v FROM nums)")

    def test_scalar_subquery_no_rows_is_null(self, db):
        rows = db.query(
            "SELECT k FROM nums WHERE v > (SELECT v FROM nums WHERE k > 99)"
        )
        assert rows == []


class TestDDLAndDML:
    def test_insert_arity_error(self, db):
        with pytest.raises(SqlTypeError):
            db.insert_rows("nums", [(1, 2.0)])

    def test_type_errors_on_insert(self, db):
        with pytest.raises(SqlTypeError):
            db.insert_rows("nums", [("oops", 1.0, "x")])

    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE nums (x INT)")

    def test_create_index_then_lookup(self, db):
        db.execute("CREATE INDEX nums_k ON nums (k)")
        assert db.query("SELECT v FROM nums WHERE k = 3") == [(30.0,)]

    def test_prepare_requires_select(self, db):
        with pytest.raises(PlanError):
            db.prepare("CREATE INDEX nums_k ON nums (k)")
        with pytest.raises(PlanError):
            db.query("CREATE INDEX nums_k ON nums (k)")

    def test_explain_output(self, db):
        plan = db.explain("SELECT k FROM nums WHERE v > 10")
        assert "SeqScan" in plan
        assert "cost=" in plan

    def test_estimated_cost_positive(self, db):
        assert db.estimated_cost("SELECT * FROM nums") > 0


class TestIndexVsSeqScanEquivalence:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60),
        probe=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_results_with_and_without_index(self, keys, probe):
        plain = Database(page_capacity=3)
        plain.execute("CREATE TABLE t (k INT)")
        plain.insert_rows("t", [(k,) for k in keys])

        indexed = Database(page_capacity=3)
        indexed.execute("CREATE TABLE t (k INT)")
        indexed.insert_rows("t", [(k,) for k in keys])
        indexed.execute("CREATE INDEX t_k ON t (k)")
        indexed.analyze()

        sql = f"SELECT k FROM t WHERE k = {probe}"
        assert sorted(plain.query(sql)) == sorted(indexed.query(sql))
        assert "IndexScan" in indexed.explain(sql)
        assert "SeqScan" in plain.explain(sql)
