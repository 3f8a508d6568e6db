"""Tests for derived tables (FROM-clause subqueries)."""

import pytest

from repro.engine import Database
from repro.engine.errors import ParseError, PlanError


@pytest.fixture()
def db():
    d = Database(page_capacity=5)
    d.execute("CREATE TABLE t (k INT, v FLOAT)")
    d.insert_rows("t", [(i % 4, float(i)) for i in range(40)])
    return d


class TestDerivedTables:
    def test_aggregate_in_from(self, db):
        rows = db.query(
            "SELECT d.k, d.total FROM "
            "(SELECT k, sum(v) AS total FROM t GROUP BY k) d "
            "WHERE d.total > 180 ORDER BY d.k"
        )
        assert rows == [(1, 190.0), (2, 200.0), (3, 210.0)]

    def test_count_over_distinct(self, db):
        assert db.query(
            "SELECT count(*) FROM (SELECT DISTINCT k FROM t) x"
        ) == [(4,)]

    def test_join_base_with_derived(self, db):
        rows = db.query(
            "SELECT a.k, b.total FROM t a "
            "JOIN (SELECT k, count(*) total FROM t GROUP BY k) b ON a.k = b.k "
            "WHERE a.v < 2 ORDER BY a.k"
        )
        assert rows == [(0, 10), (1, 10)]

    def test_nested_derived_tables(self, db):
        rows = db.query(
            "SELECT z.n FROM (SELECT count(*) n FROM "
            "(SELECT DISTINCT k FROM t) inner_d) z"
        )
        assert rows == [(4,)]

    def test_alias_required(self, db):
        with pytest.raises(ParseError):
            db.query("SELECT 1 FROM (SELECT k FROM t)")

    def test_only_select_allowed(self, db):
        with pytest.raises(ParseError):
            db.query("SELECT 1 FROM (DELETE FROM t) x")

    def test_alias_scopes_columns(self, db):
        # The inner alias is not visible outside.
        with pytest.raises(PlanError):
            db.query("SELECT t.k FROM (SELECT k FROM t) d")

    def test_outer_columns_use_alias(self, db):
        rows = db.query("SELECT d.k FROM (SELECT k FROM t WHERE k = 3) d LIMIT 1")
        assert rows == [(3,)]

    def test_derived_table_is_steppable_and_costed(self, db):
        ex = db.prepare(
            "SELECT d.k FROM (SELECT k, sum(v) s FROM t GROUP BY k) d "
            "WHERE d.s > 0"
        )
        assert ex.root.est_cost > 0
        ex.run_to_completion()
        assert ex.work_done > 0
        assert len(ex.rows) == 4

    def test_star_expansion_over_derived(self, db):
        rows = db.query("SELECT * FROM (SELECT k, v FROM t WHERE v < 2) d ORDER BY v")
        assert rows == [(0, 0.0), (1, 1.0)]
