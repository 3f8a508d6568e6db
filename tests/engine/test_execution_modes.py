"""Differential suite: the engine vs. stdlib ``sqlite3``, and work parity.

sqlite3 is the outside oracle for rows (see :mod:`tests.engine.sqlite_oracle`
for the comparison rules and the documented dialect normalisers).  For
every workload template and a hypothesis corpus of generated SQL the
engine's rows must match sqlite3's.

Work has no outside oracle, so it is pinned three ways:

* the awkward vector widths (1, 7, 1024) must agree with each other on
  rows (types included) and on the work total -- also under
  checkpoints and restores;
* independent closed forms where they exist: a full ``SeqScan`` charges
  ``heap.page_count`` and an index probe charges its descent plus 1 U per
  distinct heap page;
* the bit-exact end-to-end benchmark signatures.

The corpus runs with and without the decorrelation rewrite; without it,
every subquery stays an expression node with a per-outer-row subplan, and
the corpus puts one in every selectively evaluated position (AND/OR right
sides, CASE branches, IN-list items).  A correlated subplan charges its
whole plan once per row that reaches its node -- never for a row a
short-circuit or a dead branch kept away (a closed form below).

Also covers the statement cache: repeated statements share only the
parsed AST, which planning (decorrelation included) must never mutate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, ExecutionError
from repro.engine import database as database_mod
from repro.engine.executor import QueryExecution
from repro.engine.sql import parse_statement
from repro.workload.queries import join_query, paper_query, scan_query
from repro.workload.tpcr import TpcrConfig, generate

from tests.engine.helpers import undecorrelated
from tests.engine.sqlite_oracle import assert_matches_sqlite

BATCH_SIZES = (1, 7, 1024)


@pytest.fixture(scope="module")
def dataset():
    return generate(TpcrConfig(scale=1 / 4000, seed=3), part_sizes={1: 4})


def run(db, sql, batch_size=None):
    ex = db.prepare(sql, batch_size=batch_size)
    rows = ex.run_to_completion()
    return rows, ex.work_done, ex


def assert_width_parity(db, sql):
    """Rows (types included) and work agree at every vector width."""
    ref_rows, ref_work, _ = run(db, sql, batch_size=BATCH_SIZES[-1])
    for width in BATCH_SIZES[:-1]:
        rows, work, _ = run(db, sql, batch_size=width)
        assert rows == ref_rows, f"width={width}"
        assert [tuple(map(type, r)) for r in rows] == [
            tuple(map(type, r)) for r in ref_rows
        ], f"width={width}"
        assert work == ref_work, f"width={width}"
    return ref_rows, ref_work


class TestWorkloadTemplates:
    """Every workload query template against sqlite3, three vector widths."""

    @pytest.mark.parametrize(
        "sql",
        [paper_query(1), join_query(1), scan_query(1)],
        ids=["paper", "join_agg", "scan_sort"],
    )
    def test_rows_and_work_identical(self, dataset, sql):
        db = dataset.db
        rows, _ = assert_width_parity(db, sql)
        assert_matches_sqlite(db, sql, rows)
        # The per-outer-row subplan shape of the same SQL agrees too.
        assert_matches_sqlite(db, sql, undecorrelated(db).query(sql))


class TestClosedForms:
    """Work totals derived without running the engine."""

    def test_full_scan_charges_page_count(self, dataset):
        db = dataset.db
        heap = db.catalog.table("lineitem").heap
        for width in BATCH_SIZES:
            _, work, _ = run(db, "SELECT * FROM lineitem", batch_size=width)
            assert work == heap.page_count

    def test_index_probe_charges_distinct_pages(self):
        db = Database(page_capacity=10)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        # k repeats every 7 rows, so one key's RIDs spread across pages.
        db.insert_rows("t", [(i % 7, float(i)) for i in range(210)])
        db.execute("CREATE INDEX t_k ON t (k)")
        db.analyze()
        index = db.catalog.table("t").indexes["t_k"]
        rids = index.search(3)
        pages = len({rid.page_no for rid in rids})
        sql = "SELECT v FROM t WHERE k = 3"
        assert "IndexScan" in db.explain(sql)
        for width in BATCH_SIZES:
            _, work, _ = run(db, sql, batch_size=width)
            assert work == index.lookup_cost(len(rids)) + pages

    @staticmethod
    def _per_row_db():
        db = Database(page_capacity=4, decorrelate=False)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.insert_rows("t", [(i % 5, float(i)) for i in range(22)])
        return db, db.catalog.table("t").heap.page_count

    def test_subplan_charges_once_per_reaching_row(self):
        # No index: every run of the EXISTS subplan is a full scan of t.
        db, pages = self._per_row_db()
        reaching = sum(1 for i in range(22) if i % 5 > 2)  # OR's left is False
        sql = (
            "SELECT k FROM t p WHERE k <= 2 OR EXISTS "
            "(SELECT 1 FROM t i WHERE i.k = p.k AND i.v > p.v)"
        )
        for width in BATCH_SIZES:
            _, work, _ = run(db, sql, batch_size=width)
            assert work == pages * (1 + reaching)

    def test_dead_branch_subquery_never_runs(self):
        db, pages = self._per_row_db()
        dead = (
            "SELECT CASE WHEN k > 100 THEN "
            "(SELECT count(*) FROM t i WHERE i.k = p.k) ELSE 0 END FROM t p"
        )
        # A multi-row scalar subquery is an error only where it runs.
        dead_error = "SELECT CASE WHEN k > 100 THEN (SELECT v FROM t) END FROM t"
        for width in BATCH_SIZES:
            for sql in (dead, dead_error):
                _, work, _ = run(db, sql, batch_size=width)
                assert work == pages
            with pytest.raises(ExecutionError, match="more than one row"):
                run(db, dead_error.replace("k > 100", "k >= 0"), batch_size=width)


SQL_CORPUS = [
    "SELECT k, v FROM t WHERE k > 0",
    "SELECT k, v FROM t WHERE k = 2 OR v < 0",
    "SELECT count(*), sum(v), min(v), max(k), avg(v) FROM t",
    "SELECT k, count(*) c, sum(v) s FROM t GROUP BY k ORDER BY k",
    "SELECT k, sum(v) s FROM t GROUP BY k HAVING count(*) > 1",
    "SELECT DISTINCT k FROM t ORDER BY k",
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 5",
    "SELECT k, v FROM t ORDER BY v, k LIMIT 3 OFFSET 2",
    "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k WHERE a.v > b.v",
    "SELECT k FROM t WHERE k IN (1, 2, 3)",
    "SELECT k FROM t WHERE v IS NULL",
    "SELECT abs(v), upper('x'), k * 2 + 1 FROM t WHERE k IS NOT NULL",
    "SELECT * FROM t p WHERE p.v > (SELECT avg(v) FROM t WHERE k = p.k)",
    "SELECT k FROM t p WHERE EXISTS "
    "(SELECT 1 FROM t i WHERE i.k = p.k AND i.v < 0)",
    # A subquery in every position the binder evaluates selectively, two
    # subquery nodes in one expression, and an uncorrelated IN (the hashed
    # membership probe).
    "SELECT k, CASE WHEN k > 0 THEN (SELECT count(*) FROM t i WHERE i.k = p.k) "
    "ELSE -1 END FROM t p",
    "SELECT k FROM t p WHERE k > 0 AND v > "
    "(SELECT min(i.v) FROM t i WHERE i.k = p.k)",
    "SELECT k FROM t p WHERE k IS NULL OR EXISTS "
    "(SELECT 1 FROM t i WHERE i.k = p.k AND i.v > p.v)",
    "SELECT k FROM t p WHERE k IN (0, (SELECT max(i.k) FROM t i WHERE i.v < p.v))",
    "SELECT coalesce((SELECT max(i.v) FROM t i WHERE i.k = p.k), 0) FROM t p",
    "SELECT k FROM t p WHERE v NOT IN "
    "(SELECT i.v FROM t i WHERE i.k = p.k AND i.v > 0)",
    "SELECT (SELECT count(*) FROM t i WHERE i.k < p.k) + "
    "(SELECT count(*) FROM t i WHERE i.k > p.k) FROM t p",
    "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v > 0)",
]


@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    return [
        (
            draw(st.one_of(st.none(), st.integers(-4, 4))),
            draw(
                st.one_of(
                    st.none(),
                    st.floats(-50, 50, allow_nan=False),
                    st.integers(-50, 50),
                )
            ),
        )
        for _ in range(n)
    ]


class TestHypothesisCorpus:
    @given(
        rows=small_tables(),
        sql=st.sampled_from(SQL_CORPUS),
        width=st.sampled_from(BATCH_SIZES),
        page=st.sampled_from([1, 3, 50]),
        decorrelate=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_sqlite_oracle(self, rows, sql, width, page, decorrelate):
        db = Database(page_capacity=page, decorrelate=decorrelate)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.insert_rows("t", rows)
        got_rows, got_work, _ = run(db, sql, batch_size=width)
        assert_matches_sqlite(db, sql, got_rows)
        ref_rows, ref_work, _ = run(db, sql)
        assert got_rows == ref_rows
        assert got_work == ref_work


#: An aggregate in a LIKE pattern or an IN-subquery operand, over
#: ``t (k INT, s TEXT)`` and ``p (k INT, pat TEXT)``.
AGGREGATE_OPERAND_CORPUS = [
    # LIKE pattern.
    "SELECT 'abc' LIKE min(s) FROM t",
    "SELECT k, 'abd' NOT LIKE max(s) FROM t GROUP BY k",
    "SELECT k FROM t GROUP BY k HAVING 'abc' LIKE min(s)",
    # IN-subquery operand.
    "SELECT max(k) IN (SELECT k FROM p) FROM t",
    "SELECT k, min(s) NOT IN (SELECT pat FROM p) FROM t GROUP BY k",
    "SELECT k FROM t GROUP BY k HAVING min(s) IN (SELECT pat FROM p)",
]


class TestAggregateOperands:
    """An aggregate in a LIKE pattern or an IN-subquery operand, in the
    select list and in HAVING: every expression walker must reach those
    children, or the planner rejects the aggregate as out of place."""

    @pytest.fixture(scope="class", params=[True, False], ids=["dc", "nodc"])
    def db(self, request):
        db = Database(page_capacity=3, decorrelate=request.param)
        db.execute("CREATE TABLE t (k INT, s TEXT)")
        db.execute("CREATE TABLE p (k INT, pat TEXT)")
        db.insert_rows("t", [
            (1, "abc"), (2, "abd"), (2, "xbc"), (3, None), (None, "a%"),
        ])
        db.insert_rows("p", [(2, "a%"), (4, "%c"), (None, "abc")])
        return db

    @pytest.mark.parametrize("sql", AGGREGATE_OPERAND_CORPUS)
    def test_engine_matches_sqlite(self, db, sql):
        assert_matches_sqlite(db, sql, db.query(sql))


class TestDialectNormalisers:
    """Each documented sqlite3 normaliser meets a query that needs it."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database(page_capacity=3)
        db.execute("CREATE TABLE w (s TEXT, n INT, b BOOLEAN)")
        db.insert_rows("w", [
            ("apple", 1, True), ("Apple", 2, False), ("APPLE", None, None),
            (None, 4, True), ("banana", 7, False), ("cherry", None, True),
        ])
        return db

    @pytest.mark.parametrize("sql", [
        # NULL sort position, both directions.
        "SELECT s, n FROM w ORDER BY n, s",
        "SELECT s, n FROM w ORDER BY n DESC, s DESC",
        # LIKE case folding.
        "SELECT s FROM w WHERE s LIKE 'a%'",
        "SELECT s FROM w WHERE s NOT LIKE '%E'",
        # int/float affinity (BOOLEAN is 0/1 in sqlite3).
        "SELECT b, n * 1.0 FROM w WHERE b IS NOT NULL",
        # avg of ints.
        "SELECT avg(n), sum(n) FROM w",
    ])
    def test_engine_matches_sqlite(self, db, sql):
        assert_matches_sqlite(db, sql, db.query(sql))


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("width", BATCH_SIZES)
    def test_crash_restore_matches_uninterrupted_row(self, dataset, width):
        """Restore mid-flight; final rows/work match an uninterrupted run."""
        db = dataset.db
        sql = join_query(1)
        oracle_rows, oracle_work, _ = run(db, sql)

        ex = db.prepare(sql, checkpoint_interval=20.0, batch_size=width)
        while not ex.finished and ex.last_checkpoint is None:
            ex.step(10.0)
        ckpt = ex.last_checkpoint
        assert ckpt is not None

        resumed = db.prepare(sql, checkpoint_interval=20.0, batch_size=width)
        resumed.restore(ckpt)
        rows = resumed.run_to_completion()
        assert rows == oracle_rows
        assert resumed.work_done == oracle_work


class TestStatementCache:
    """``prepare()`` and ``query()`` share the cached AST and plan afresh."""

    def _db(self, decorrelate=True):
        db = Database(page_capacity=4, decorrelate=decorrelate)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.insert_rows("t", [(i % 3, float(i)) for i in range(20)])
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k",
            "SELECT k, v FROM t ORDER BY v DESC LIMIT 4",
            "SELECT k FROM t p WHERE p.v > (SELECT avg(v) FROM t)",
            "SELECT k FROM t p WHERE p.v > (SELECT avg(v) FROM t WHERE k = p.k)",
            "SELECT k FROM t p WHERE EXISTS "
            "(SELECT 1 FROM t WHERE k = p.k AND v > 15)",
        ],
        ids=["group_by", "order_limit", "uncorrelated", "correlated", "exists"],
    )
    @pytest.mark.parametrize("decorrelate", [True, False], ids=["on", "off"])
    def test_repeats_keep_the_ast(self, decorrelate, sql, monkeypatch):
        queried = []

        class Recording(QueryExecution):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                queried.append(self)

        monkeypatch.setattr(database_mod, "QueryExecution", Recording)
        db = self._db(decorrelate)
        runs = []
        for _ in range(2):
            ex = db.prepare(sql)
            runs.append((ex.run_to_completion(), ex.work_done))
            assert db._statement_cache[sql] == parse_statement(sql)
        for _ in range(2):
            rows = db.query(sql)
            runs.append((rows, queried[-1].work_done))
            assert db._statement_cache[sql] == parse_statement(sql)
        assert all(run == runs[0] for run in runs[1:])
        assert_matches_sqlite(db, sql, runs[0][0])

    def test_query_after_insert_sees_new_rows(self):
        db = self._db()
        sql = "SELECT count(*) FROM t"
        assert db.query(sql) == [(20,)]
        db.insert_rows("t", [(9, 9.0)])
        assert db.query(sql) == [(21,)]
