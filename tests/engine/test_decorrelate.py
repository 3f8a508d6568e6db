"""Tests for the plan-time subquery-decorrelation rewrite.

Plan shapes, rewrite-rule firing, the semantic corner cases the rewrite
must preserve (empty groups, NULL keys, three-valued NOT IN), the safety
conditions that make it back off, and the uncorrelated IN membership
probe.
"""

import pytest

from repro.engine import Database
from repro.engine.decorrelate import decorrelate_select, decorrelate_statement
from repro.engine.errors import SqlTypeError
from repro.engine.sql import parse_statement

from tests.engine.sqlite_oracle import assert_matches_sqlite


def fresh_db(decorrelate=True):
    db = Database(page_capacity=8, decorrelate=decorrelate)
    db.execute("CREATE TABLE t (k INT, v FLOAT)")
    db.execute("CREATE TABLE s (k INT, v FLOAT)")
    db.insert_rows(
        "t", [(1, 10.0), (2, 20.0), (2, 25.0), (3, 30.0), (None, 40.0)]
    )
    db.insert_rows("s", [(1, 10.0), (1, None), (2, 99.0), (None, 20.0)])
    db.analyze()
    return db


def tags_for(db, sql):
    statement = parse_statement(sql)
    _, fired = decorrelate_statement(statement, db.catalog)
    return fired


def oracle(db, sql):
    """*sql* on a copy of *db* that keeps the per-outer-row subplans."""
    naive = fresh_db(decorrelate=False)
    for table in ("t", "s"):
        naive.execute(f"DELETE FROM {table}")
        naive.insert_rows(table, db.query(f"SELECT * FROM {table}"))
    return naive.query(sql)


class TestSwitch:
    def test_default_is_on(self):
        assert Database().planner.decorrelate is True
        assert Database(decorrelate=False).planner.decorrelate is False

    def test_database_decorrelate_off_keeps_row_loop_plan(self):
        db = Database(page_capacity=8, decorrelate=False)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.execute("CREATE TABLE s (k INT, v FLOAT)")
        db.insert_rows("t", [(1, 1.0)])
        db.insert_rows("s", [(1, 1.0)])
        plan = db.explain(
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k = t.k)"
        )
        assert "HashLeftJoin" not in plan


class TestRuleFiring:
    def test_scalar_aggregate_fires(self):
        db = fresh_db()
        assert tags_for(
            db,
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k = t.k)",
        ) == ("scalar-agg",)

    def test_exists_fires_semi(self):
        db = fresh_db()
        assert tags_for(
            db,
            "SELECT t.k FROM t WHERE EXISTS "
            "(SELECT 1 FROM s WHERE s.k = t.k)",
        ) == ("semi-join",)

    def test_not_exists_fires_anti(self):
        db = fresh_db()
        assert tags_for(
            db,
            "SELECT t.k FROM t WHERE NOT EXISTS "
            "(SELECT 1 FROM s WHERE s.k = t.k)",
        ) == ("anti-join",)

    def test_in_fires(self):
        db = fresh_db()
        assert tags_for(
            db,
            "SELECT t.k FROM t WHERE t.v IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)",
        ) == ("semi-in",)

    def test_not_in_fires(self):
        db = fresh_db()
        assert tags_for(
            db,
            "SELECT t.k FROM t WHERE t.v NOT IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)",
        ) == ("anti-in",)

    def test_plan_shape_is_left_hash_join(self):
        db = fresh_db()
        plan = db.explain(
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k = t.k)"
        )
        assert "HashLeftJoin" in plan
        assert "HashAggregate" in plan
        assert "#dc0" in plan

    def test_union_branches_decorrelate(self):
        db = fresh_db()
        sql = (
            "SELECT t.k FROM t WHERE EXISTS "
            "(SELECT 1 FROM s WHERE s.k = t.k) "
            "UNION SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k = t.k)"
        )
        assert tags_for(db, sql) == ("semi-join", "scalar-agg")
        assert db.query(sql) == oracle(db, sql)


class TestSemanticCorners:
    def test_count_over_empty_group_is_zero(self):
        db = fresh_db()
        sql = (
            "SELECT t.k, (SELECT count(*) FROM s WHERE s.k = t.k) "
            "FROM t ORDER BY 1"
        )
        rows = db.query(sql)
        assert rows == oracle(db, sql)
        # k=3 has no s rows; COUNT must be 0, not NULL.
        assert (3, 0) in rows

    def test_sum_over_empty_group_is_null(self):
        db = fresh_db()
        sql = "SELECT t.k, (SELECT sum(s.v) FROM s WHERE s.k = t.k) FROM t"
        rows = db.query(sql)
        assert rows == oracle(db, sql)
        assert (3, None) in rows

    def test_null_correlation_key_never_matches(self):
        db = fresh_db()
        # t has a NULL k; s has a NULL k with v=20 -- they must not join.
        sql = (
            "SELECT t.v FROM t WHERE EXISTS "
            "(SELECT 1 FROM s WHERE s.k = t.k)"
        )
        rows = db.query(sql)
        assert rows == oracle(db, sql)
        assert (40.0,) not in rows

    def test_duplicate_outer_keys_each_get_the_value(self):
        db = fresh_db()
        sql = (
            "SELECT t.v, (SELECT max(s.v) FROM s WHERE s.k = t.k) "
            "FROM t WHERE t.k = 2"
        )
        rows = db.query(sql)
        assert rows == oracle(db, sql)
        assert rows == [(20.0, 99.0), (25.0, 99.0)]

    def test_not_in_with_inner_null_is_unknown(self):
        db = fresh_db()
        # k=1's group is {10.0, NULL}: v NOT IN it is NULL for v != 10,
        # so no k=1 row may survive; k=3's group is empty, so NOT IN is
        # TRUE and the row survives.
        sql = (
            "SELECT t.k, t.v FROM t WHERE t.v NOT IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)"
        )
        rows = db.query(sql)
        assert rows == oracle(db, sql)
        assert all(k != 1 for k, _ in rows)
        assert (3, 30.0) in rows

    def test_in_with_null_operand_is_unknown(self):
        db = fresh_db()
        db.execute("INSERT INTO t VALUES (1, NULL)")
        sql = (
            "SELECT t.k, t.v FROM t WHERE t.v IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)"
        )
        assert db.query(sql) == oracle(db, sql)

    @pytest.mark.parametrize("negated", [False, True])
    def test_null_operand_over_empty_group_is_decided(self, negated):
        # IN over an empty set is FALSE (NOT IN TRUE) even for a NULL
        # operand; stdlib sqlite3 agrees.
        db = fresh_db()
        db.execute("INSERT INTO t VALUES (7, NULL)")  # no s row has k = 7
        sql = (
            f"SELECT t.k FROM t WHERE t.v {'NOT IN' if negated else 'IN'} "
            "(SELECT s.v FROM s WHERE s.k = t.k)"
        )
        rows = db.query(sql)
        assert ((7,) in rows) is negated
        assert rows == oracle(db, sql)
        assert_matches_sqlite(db, sql, rows)

    def test_select_list_and_order_by_share_one_join(self):
        db = fresh_db()
        sql = (
            "SELECT t.k, (SELECT count(*) FROM s WHERE s.k = t.k) c "
            "FROM t ORDER BY (SELECT count(*) FROM s WHERE s.k = t.k), t.k"
        )
        plan = db.explain(sql)
        assert plan.count("HashLeftJoin") == 1
        assert db.query(sql) == oracle(db, sql)

    def test_compound_aggregate_expression(self):
        db = fresh_db()
        sql = (
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT sum(s.v) / count(s.v) FROM s WHERE s.k = t.k)"
        )
        assert tags_for(db, sql) == ("scalar-agg",)
        assert db.query(sql) == oracle(db, sql)


class TestSafetyFallbacks:
    """Unprovable queries must pass through the rewrite untouched."""

    @pytest.mark.parametrize(
        "sql",
        [
            # Non-equality correlation.
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k < t.k)",
            # LIMIT inside a scalar subquery.
            "SELECT t.k FROM t WHERE t.v > "
            "(SELECT avg(s.v) FROM s WHERE s.k = t.k LIMIT 1)",
            # GROUP BY inside the subquery body.
            "SELECT t.k FROM t WHERE EXISTS "
            "(SELECT s.k FROM s WHERE s.k = t.k GROUP BY s.k)",
            # No aggregate in the scalar body.
            "SELECT t.k FROM t WHERE t.v = "
            "(SELECT s.v FROM s WHERE s.k = t.k AND s.v IS NOT NULL)",
            # Uncorrelated: already an init-plan, nothing to decorrelate.
            "SELECT t.k FROM t WHERE t.v > (SELECT avg(s.v) FROM s)",
            # Computed IN operand (could raise; scan short-circuits).
            "SELECT t.k FROM t WHERE t.v * 2 IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)",
            # Non-column IN value expression.
            "SELECT t.k FROM t WHERE t.v IN "
            "(SELECT s.v + 1 FROM s WHERE s.k = t.k)",
        ],
        ids=[
            "non-equality",
            "limit",
            "group-by",
            "no-aggregate",
            "uncorrelated",
            "computed-operand",
            "computed-value",
        ],
    )
    def test_rewrite_backs_off_and_results_match(self, sql):
        db = fresh_db()
        assert tags_for(db, sql) == ()
        assert db.query(sql) == oracle(db, sql)

    def test_cross_family_key_backs_off(self):
        db = fresh_db()
        db.execute("CREATE TABLE u (k TEXT)")
        db.insert_rows("u", [("1",)])
        # t.k is INT, u.k is TEXT: hash equality would silently not
        # match where compare_values raises, so the rewrite must not
        # fire and the error must surface unchanged.
        sql = "SELECT t.k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)"
        assert tags_for(db, sql) == ()
        with pytest.raises(SqlTypeError):
            db.query(sql)

    def test_rewrite_returns_input_object_on_no_op(self):
        db = fresh_db()
        statement = parse_statement("SELECT t.k FROM t WHERE t.v > 1")
        rewritten, fired = decorrelate_select(statement, db.catalog)
        assert rewritten is statement
        assert fired == ()


class TestUncorrelatedInProbe:
    def _db(self, small_rows):
        db = Database(page_capacity=10, decorrelate=False)
        db.execute("CREATE TABLE big (id INT, v FLOAT)")
        db.execute("CREATE TABLE small (v FLOAT)")
        db.insert_rows("big", [(i, float(i % 10)) for i in range(300)])
        db.insert_rows("small", small_rows)
        db.analyze()
        return db

    def test_probe_skips_per_row_comparisons(self, monkeypatch):
        """The hashed probe does no per-row compare_values calls."""
        import repro.engine.expr as expr_mod

        calls = {"n": 0}
        real = expr_mod.compare_values

        def counting(a, b):
            calls["n"] += 1
            return real(a, b)

        db = self._db([(3.0,), (7.0,), (None,)])
        sql = "SELECT id FROM big WHERE v IN (SELECT v FROM small)"
        expected = db.query(sql)
        monkeypatch.setattr(expr_mod, "compare_values", counting)
        rows = db.query(sql)
        assert rows == expected
        # The naive scan would do O(outer x inner) comparisons (several
        # hundred here); the probe needs none for clean hits/misses.
        assert calls["n"] == 0

    def test_work_units_are_one_scan_each(self):
        """The inner query charges its scan once, not once per outer row."""
        db = self._db([(3.0,), (7.0,)])
        sql = "SELECT id FROM big WHERE v IN (SELECT v FROM small)"
        ex = db.prepare(sql)
        ex.run_to_completion()
        big_pages = db.catalog.table("big").heap.page_count
        small_pages = db.catalog.table("small").heap.page_count
        assert ex.work_done == pytest.approx(big_pages + small_pages)

    def test_probe_matches_scan_on_mixed_type_error(self):
        db = self._db([])
        db.execute("CREATE TABLE names (s TEXT)")
        db.insert_rows("names", [("x",)])
        sql = "SELECT id FROM big WHERE v IN (SELECT s FROM names)"
        # Comparing float with str must raise exactly as the ordered
        # scan does (the clash precedes any possible match).
        with pytest.raises(SqlTypeError):
            db.query(sql)

    def test_probe_falls_back_on_nan(self):
        nan = float("nan")
        db = self._db([(nan,)])
        sql = "SELECT id FROM big WHERE v IN (SELECT v FROM small)"
        rows = db.query(sql)
        # compare_values treats NaN as equal to every number (engine
        # quirk), so every big row matches; the probe must agree.
        assert len(rows) == 300

    def test_correlated_in_still_scans(self):
        # Correlated runner: rows differ per outer row; no probe.
        db = Database(page_capacity=10, decorrelate=False)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.execute("CREATE TABLE s (k INT, v FLOAT)")
        db.insert_rows("t", [(1, 1.0), (2, 2.0)])
        db.insert_rows("s", [(1, 1.0), (2, 9.0)])
        sql = (
            "SELECT t.k FROM t WHERE t.v IN "
            "(SELECT s.v FROM s WHERE s.k = t.k)"
        )
        rows = db.query(sql)
        assert rows == [(1,)]
