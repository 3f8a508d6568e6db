"""Tests for LEFT [OUTER] JOIN support."""

import pytest

from repro.engine import Database


@pytest.fixture()
def db():
    d = Database(page_capacity=4)
    d.execute("CREATE TABLE t (k INT, v FLOAT)")
    d.insert_rows("t", [(1, 10.0), (2, 20.0), (3, 30.0), (4, None)])
    d.execute("CREATE TABLE u (k INT, name TEXT)")
    d.insert_rows("u", [(1, "one"), (3, "three"), (9, "nine")])
    return d


class TestLeftJoin:
    def test_unmatched_rows_padded_with_nulls(self, db):
        rows = db.query(
            "SELECT t.k, u.name FROM t LEFT JOIN u ON t.k = u.k ORDER BY t.k"
        )
        assert rows == [(1, "one"), (2, None), (3, "three"), (4, None)]

    def test_left_outer_keyword(self, db):
        rows = db.query(
            "SELECT count(*) FROM t LEFT OUTER JOIN u ON t.k = u.k"
        )
        assert rows == [(4,)]

    def test_anti_join_idiom(self, db):
        rows = db.query(
            "SELECT t.k FROM t LEFT JOIN u ON t.k = u.k "
            "WHERE u.name IS NULL ORDER BY t.k"
        )
        assert rows == [(2,), (4,)]

    def test_where_not_pushed_into_nullable_side(self, db):
        # A WHERE filter on u must apply after padding, not before joining.
        rows = db.query(
            "SELECT t.k FROM t LEFT JOIN u ON t.k = u.k "
            "WHERE u.name = 'one' OR u.name IS NULL ORDER BY t.k"
        )
        assert rows == [(1,), (2,), (4,)]

    def test_residual_on_condition_decides_matching(self, db):
        # ON t.k = u.k AND u.k > 1: row k=1 must NOT match (residual fails)
        # and must still appear padded.
        rows = db.query(
            "SELECT t.k, u.k FROM t LEFT JOIN u ON t.k = u.k AND u.k > 1 "
            "ORDER BY t.k"
        )
        assert rows == [(1, None), (2, None), (3, 3), (4, None)]

    def test_non_equi_left_join(self, db):
        rows = db.query(
            "SELECT t.k, u.k FROM t LEFT JOIN u ON t.k > u.k AND u.k > 2 "
            "ORDER BY t.k"
        )
        # only u.k=3 qualifies; t.k=4 > 3 matches, others padded.
        assert rows == [(1, None), (2, None), (3, None), (4, 3)]

    def test_left_join_explain_shows_outer(self, db):
        plan = db.explain("SELECT 1 FROM t LEFT JOIN u ON t.k = u.k")
        assert "HashLeftJoin" in plan
