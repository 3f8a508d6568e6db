"""Differential corpus: decorrelated plans vs. the naive plan and sqlite3.

A ``Database(decorrelate=False)`` executes correlated subqueries the
pre-rewrite way (per-outer-row subplans); stdlib ``sqlite3`` is the outside
oracle (see :mod:`tests.engine.sqlite_oracle`).  Every query in the corpus
runs all three ways over hypothesis-generated data -- including empty
inner tables, NULL correlation keys, NULL values inside IN groups, and
duplicate outer keys -- and the rows must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database

from tests.engine.sqlite_oracle import assert_matches_sqlite

#: Queries the rewrite provably fires on (asserted below).
REWRITTEN_CORPUS = [
    "SELECT t.k, t.v FROM t WHERE t.v > "
    "(SELECT avg(s.v) FROM s WHERE s.k = t.k)",
    "SELECT t.k, (SELECT count(*) FROM s WHERE s.k = t.k) FROM t",
    "SELECT t.k, (SELECT count(s.v) FROM s WHERE s.k = t.k) FROM t",
    "SELECT t.k, (SELECT sum(s.v) FROM s WHERE s.k = t.k) FROM t",
    "SELECT t.k, (SELECT min(s.v) FROM s WHERE s.k = t.k AND s.v > 0) FROM t",
    "SELECT t.v, (SELECT max(s.v) FROM s WHERE s.k = t.k) m FROM t "
    "ORDER BY t.v, t.k",
    "SELECT t.k FROM t WHERE t.v > "
    "(SELECT sum(s.v) / count(s.v) FROM s WHERE s.k = t.k)",
    "SELECT t.k FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.k = t.k)",
    "SELECT t.k FROM t WHERE NOT EXISTS "
    "(SELECT 1 FROM s WHERE s.k = t.k AND s.v < 0)",
    "SELECT count(*) FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.k = t.k)",
    "SELECT t.k, t.v FROM t WHERE t.v IN "
    "(SELECT s.v FROM s WHERE s.k = t.k)",
    "SELECT t.k, t.v FROM t WHERE t.v NOT IN "
    "(SELECT s.v FROM s WHERE s.k = t.k)",
    "SELECT t.k FROM t WHERE 0 IN (SELECT s.v FROM s WHERE s.k = t.k)",
]

#: Queries the safety conditions must leave on per-row subplans; they
#: still have to match the oracle (trivially -- same plan -- but they
#: guard against the rewrite firing where it must not).
FALLBACK_CORPUS = [
    "SELECT t.k FROM t WHERE t.v > "
    "(SELECT avg(s.v) FROM s WHERE s.k < t.k)",
    "SELECT t.k FROM t WHERE t.v > (SELECT avg(s.v) FROM s)",
    "SELECT t.k FROM t WHERE t.v IN "
    "(SELECT s.v + 0 FROM s WHERE s.k = t.k)",
]

BATCH_SIZES = (1, 7, 1024)


@st.composite
def key_value_rows(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    return [
        (
            draw(st.one_of(st.none(), st.integers(-3, 3))),
            draw(
                st.one_of(
                    st.none(),
                    st.integers(-40, 40),
                    st.floats(-40, 40, allow_nan=False),
                )
            ),
        )
        for _ in range(n)
    ]


def build(rows_t, rows_s, page, decorrelate=True):
    db = Database(page_capacity=page, decorrelate=decorrelate)
    db.execute("CREATE TABLE t (k INT, v FLOAT)")
    db.execute("CREATE TABLE s (k INT, v FLOAT)")
    db.insert_rows("t", rows_t)
    db.insert_rows("s", rows_s)
    return db


class TestRewrittenCorpus:
    @pytest.mark.parametrize("sql", REWRITTEN_CORPUS)
    def test_pass_fires(self, sql):
        db = build([(1, 1.0)], [(1, 1.0)], 8)
        assert "#dc" in db.explain(sql), "corpus entry did not decorrelate"

    @given(
        rows_t=key_value_rows(),
        rows_s=key_value_rows(),
        sql=st.sampled_from(REWRITTEN_CORPUS),
        width=st.sampled_from(BATCH_SIZES),
        page=st.sampled_from([1, 4, 50]),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_naive_row_oracle(
        self, rows_t, rows_s, sql, width, page
    ):
        db = build(rows_t, rows_s, page)
        got = db.prepare(sql, batch_size=width).run_to_completion()
        naive = build(rows_t, rows_s, page, decorrelate=False)
        assert got == naive.query(sql)
        assert_matches_sqlite(db, sql, got)

    @given(
        rows_t=key_value_rows(),
        rows_s=key_value_rows(),
        sql=st.sampled_from(REWRITTEN_CORPUS),
    )
    @settings(max_examples=40, deadline=None)
    def test_decorrelated_widths_agree_on_work(self, rows_t, rows_s, sql):
        """Every vector width of the *same* rewritten plan stays
        work-identical -- the engine's core width invariant."""
        db = build(rows_t, rows_s, 4)
        ref = db.prepare(sql)
        ref_rows = ref.run_to_completion()
        for width in BATCH_SIZES:
            ex = db.prepare(sql, batch_size=width)
            assert ex.run_to_completion() == ref_rows
            assert ex.work_done == ref.work_done


class TestFallbackCorpus:
    @pytest.mark.parametrize("sql", FALLBACK_CORPUS)
    def test_pass_does_not_fire(self, sql):
        db = build([(1, 1.0)], [(1, 1.0)], 8)
        assert "#dc" not in db.explain(sql)

    @given(
        rows_t=key_value_rows(),
        rows_s=key_value_rows(),
        sql=st.sampled_from(FALLBACK_CORPUS),
        width=st.sampled_from(BATCH_SIZES),
    )
    @settings(max_examples=40, deadline=None)
    def test_fallback_matches_oracle(self, rows_t, rows_s, sql, width):
        db = build(rows_t, rows_s, 8)
        got = db.prepare(sql, batch_size=width).run_to_completion()
        naive = build(rows_t, rows_s, 8, decorrelate=False)
        assert got == naive.query(sql)
        assert_matches_sqlite(db, sql, got)
