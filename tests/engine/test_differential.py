"""Differential tests: the engine vs. an independent Python reference.

Hypothesis generates random tables and simple queries; results from the
engine (with and without indexes, across page sizes) must match a naive
reference evaluator written directly against the row data.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database

COLS = ("k", "v")


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rows = []
    for _ in range(n):
        k = draw(st.one_of(st.none(), st.integers(min_value=-5, max_value=5)))
        v = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            )
        )
        rows.append((k, v))
    return rows


def build(rows, page_capacity, index):
    db = Database(page_capacity=page_capacity)
    db.execute("CREATE TABLE t (k INT, v FLOAT)")
    db.insert_rows("t", rows)
    if index:
        db.execute("CREATE INDEX t_k ON t (k)")
        db.analyze()
    return db


class TestFilters:
    @given(
        rows=tables(),
        threshold=st.integers(min_value=-5, max_value=5),
        page=st.sampled_from([1, 3, 50]),
        index=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equality_filter(self, rows, threshold, page, index):
        db = build(rows, page, index)
        got = db.query(f"SELECT k, v FROM t WHERE k = {threshold}")
        expected = [r for r in rows if r[0] is not None and r[0] == threshold]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @given(
        rows=tables(),
        lo=st.integers(min_value=-5, max_value=5),
        hi=st.integers(min_value=-5, max_value=5),
        page=st.sampled_from([2, 50]),
        index=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_filter(self, rows, lo, hi, page, index):
        db = build(rows, page, index)
        got = db.query(f"SELECT k FROM t WHERE k >= {lo} AND k <= {hi}")
        expected = [
            (r[0],) for r in rows if r[0] is not None and lo <= r[0] <= hi
        ]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @given(rows=tables(), page=st.sampled_from([2, 50]))
    @settings(max_examples=40, deadline=None)
    def test_null_handling(self, rows, page):
        db = build(rows, page, index=False)
        got = db.query("SELECT k FROM t WHERE k IS NULL")
        assert len(got) == sum(1 for r in rows if r[0] is None)
        got2 = db.query("SELECT k FROM t WHERE k = k")
        assert len(got2) == sum(1 for r in rows if r[0] is not None)


class TestAggregates:
    @given(rows=tables(), page=st.sampled_from([1, 4, 50]))
    @settings(max_examples=60, deadline=None)
    def test_global_aggregates_match_reference(self, rows, page):
        db = build(rows, page, index=False)
        got = db.query("SELECT count(*), count(v), sum(v), min(v), max(v) FROM t")[0]
        vs = [r[1] for r in rows if r[1] is not None]
        expected = (
            len(rows),
            len(vs),
            sum(vs) if vs else None,
            min(vs) if vs else None,
            max(vs) if vs else None,
        )
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        if expected[2] is None:
            assert got[2] is None
        else:
            assert got[2] == pytest.approx(expected[2], abs=1e-6)
        assert got[3] == expected[3]
        assert got[4] == expected[4]

    @given(rows=tables(), page=st.sampled_from([3, 50]))
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_reference(self, rows, page):
        db = build(rows, page, index=False)
        got = dict(db.query("SELECT k, count(*) FROM t GROUP BY k"))
        expected: dict = {}
        for k, _ in rows:
            expected[k] = expected.get(k, 0) + 1
        assert got == expected


class TestJoinsAndUnionsDifferential:
    @given(
        left=tables(),
        right=tables(),
        page=st.sampled_from([2, 50]),
    )
    @settings(max_examples=40, deadline=None)
    def test_left_join_matches_reference(self, left, right, page):
        db = Database(page_capacity=page)
        db.execute("CREATE TABLE l (k INT, v FLOAT)")
        db.insert_rows("l", left)
        db.execute("CREATE TABLE r (k INT, v FLOAT)")
        db.insert_rows("r", right)
        got = db.query("SELECT l.k, r.k FROM l LEFT JOIN r ON l.k = r.k")
        expected = []
        for lk, _ in left:
            matches = [rk for rk, _ in right if lk is not None and rk == lk]
            if matches:
                expected.extend((lk, rk) for rk in matches)
            else:
                expected.append((lk, None))
        assert sorted(got, key=repr) == sorted(expected, key=repr)


class TestOrderAndWork:
    @given(rows=tables(), page=st.sampled_from([2, 50]), desc=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_order_by_matches_python_sort(self, rows, page, desc):
        db = build(rows, page, index=False)
        direction = "DESC" if desc else "ASC"
        got = db.query(f"SELECT k FROM t WHERE k IS NOT NULL ORDER BY k {direction}")
        expected = sorted(
            (r[0] for r in rows if r[0] is not None), reverse=desc
        )
        assert [g[0] for g in got] == expected

    @given(rows=tables(), page=st.sampled_from([1, 5]))
    @settings(max_examples=30, deadline=None)
    def test_work_finite_and_page_dependent(self, rows, page):
        db = build(rows, page, index=False)
        ex = db.prepare("SELECT * FROM t")
        ex.run_to_completion()
        expected_pages = math.ceil(len(rows) / page) if rows else 0
        assert ex.work_done == expected_pages
