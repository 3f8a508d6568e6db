"""Differential suite for the columnar page layout (sqlite3 = row oracle).

The columnar layout (column vectors + selection vectors, late
materialization) must not change *anything* observable: for every
workload template, a hypothesis corpus of generated SQL, the awkward
vector widths (1, 7, 1024) and several page capacities, the engine's rows
must match stdlib ``sqlite3`` (see :mod:`tests.engine.sqlite_oracle`), and
every width must produce byte-identical rows and charge the identical work
total -- including mid-chunk checkpoint/restores, cancellation and memory
pressure.

Also pins the RID-probe invariant: index probes charge 1 U per *page*
touched, whatever the vector width.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CancellationToken, Database, QueryCancelled
from repro.engine.vector import Chunk, ColumnVector
from repro.workload.queries import join_query, paper_query, scan_query
from repro.workload.tpcr import TpcrConfig, generate

from tests.engine.helpers import undecorrelated
from tests.engine.sqlite_oracle import assert_matches_sqlite, sqlite_copy

BATCH_SIZES = (1, 7, 1024)
PAGE_CAPACITIES = (1, 3, 50)


@pytest.fixture(scope="module")
def dataset():
    return generate(TpcrConfig(scale=1 / 4000, seed=5), part_sizes={1: 4})


def run(db, sql, batch_size=None, **kw):
    ex = db.prepare(sql, batch_size=batch_size, **kw)
    rows = ex.run_to_completion()
    return rows, ex.work_done, ex


class TestColumnVector:
    def test_metadata_tracking(self):
        v = ColumnVector()
        assert v.kind == "empty" and not v.has_null
        v.push(1)
        assert v.kind == "int"
        v.push(2.5)
        assert v.kind == "num"
        v.push(None)
        assert v.has_null
        assert not v.is_clean_numeric

    def test_bool_is_not_numeric(self):
        v = ColumnVector([True, 1])
        assert v.kind == "other"

    def test_take_preserves_metadata(self, gather):
        v = ColumnVector(list(range(200)))
        sub = v.take([5, 3, 199])
        assert list(sub) == [5, 3, 199]
        assert sub.kind == "int" and not sub.has_null
        assert list(v.take(range(2, 5))) == [2, 3, 4]

    def test_huge_ints_gather_exactly(self):
        v = ColumnVector([2**80, 1, 2] * 40)
        sub = v.take(list(range(60)))
        assert sub[0] == 2**80


class TestChunk:
    def test_selection_composition(self):
        c = Chunk([ColumnVector([10, 11, 12, 13]), ColumnVector("abcd")])
        assert len(c) == 4
        narrowed = c.take([0, 2, 3])
        again = narrowed.take([1, 2])
        assert again.tuples() == [(12, "c"), (13, "d")]
        assert list(again) == [(12, "c"), (13, "d")]

    def test_slicing_stays_columnar(self):
        c = Chunk([ColumnVector(range(10))])
        s = c[2:5]
        assert type(s) is Chunk
        assert s.tuples() == [(2,), (3,), (4,)]
        assert c[3] == (3,)

    def test_zero_copy_column(self):
        col = ColumnVector([1, 2, 3])
        c = Chunk([col])
        assert c.column(0) is col


class TestWorkloadTemplates:
    @pytest.mark.parametrize(
        "sql",
        [paper_query(1), join_query(1), scan_query(1)],
        ids=["paper", "join_agg", "scan_sort"],
    )
    def test_rows_and_work_identical(self, dataset, sql, gather):
        db = dataset.db
        ref_rows, ref_work, _ = run(db, sql)
        assert_matches_sqlite(db, sql, ref_rows)
        for width in BATCH_SIZES:
            rows, work, _ = run(db, sql, batch_size=width)
            assert rows == ref_rows, f"width={width}"
            assert work == ref_work, f"width={width}"


SQL_CORPUS = [
    "SELECT k, v FROM t WHERE k > 0",
    "SELECT count(*), sum(v), min(v), max(k), avg(v) FROM t",
    "SELECT count(*), sum(k), min(k), max(k) FROM t WHERE k <> 1",
    "SELECT k, count(*) c, sum(v) s, min(v), max(v) FROM t GROUP BY k ORDER BY k",
    "SELECT DISTINCT k FROM t ORDER BY k",
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 5",
    "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k WHERE a.v > b.v",
    "SELECT k FROM t WHERE k IN (1, 2, 3) OR v IS NULL",
    "SELECT CASE WHEN k > 0 THEN v ELSE -1 END FROM t WHERE k IS NOT NULL",
    "SELECT abs(v), k * 2 + 1 FROM t WHERE k > -2 AND v < 40",
    "SELECT * FROM t p WHERE p.v > (SELECT avg(v) FROM t WHERE k = p.k)",
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
        page=st.sampled_from(PAGE_CAPACITIES),
    )
    @settings(max_examples=150, deadline=None)
    def test_columnar_batch_matches_sqlite_oracle(self, rows, sql, width, page):
        db = Database(page_capacity=page)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.insert_rows("t", rows)
        got_rows, got_work, _ = run(db, sql, batch_size=width)
        assert_matches_sqlite(db, sql, got_rows)
        ref_rows, ref_work, _ = run(db, sql)
        assert got_rows == ref_rows
        # Byte-identical, not merely equal: 1 == 1.0 in Python, but
        # every width must also preserve every value's type.
        assert [tuple(map(type, r)) for r in got_rows] == [
            tuple(map(type, r)) for r in ref_rows
        ]
        assert got_work == ref_work


class TestCheckpointMidChunk:
    @pytest.mark.parametrize("width", BATCH_SIZES)
    def test_restore_inside_a_page(self, width, gather):
        """A resume offset that lands mid-page re-enters the columnar
        chunk via a range selection; rows and work must still match."""
        db = Database(page_capacity=50)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.insert_rows("t", [(i % 5, float(i)) for i in range(173)])
        sql = "SELECT k, sum(v) FROM t WHERE k <> 3 GROUP BY k ORDER BY k"
        oracle_rows, oracle_work, _ = run(db, sql, batch_size=width)
        assert_matches_sqlite(db, sql, oracle_rows)

        ex = db.prepare(sql, checkpoint_interval=1.0, batch_size=width)
        ex.step(1.0)
        ckpt = ex.last_checkpoint
        assert ckpt is not None
        resumed = db.prepare(sql, checkpoint_interval=1.0, batch_size=width)
        resumed.restore(ckpt)
        rows = resumed.run_to_completion()
        assert rows == oracle_rows
        assert resumed.work_done == oracle_work


class TestCancelAndMemoryEquivalence:
    @pytest.mark.parametrize("width", BATCH_SIZES)
    def test_cancel_fires_in_both_modes(self, dataset, width):
        """Both plan modes of the paper query: the decorrelated join and
        the per-outer-row subplan."""
        for db in (dataset.db, undecorrelated(dataset.db)):
            tok = CancellationToken()
            ex = db.prepare(paper_query(1), cancel_token=tok, batch_size=width)
            ex.step(5.0)
            tok.cancel("test")
            with pytest.raises(QueryCancelled):
                ex.step(5.0)
            assert not ex.finished

    @pytest.mark.parametrize("width", BATCH_SIZES)
    def test_memory_pressure_equivalence(self, dataset, width, gather):
        db = dataset.db
        sql = join_query(1)
        ref_rows, ref_work, ref_ex = run(db, sql, memory_budget=64)
        rows, work, ex = run(db, sql, batch_size=width, memory_budget=64)
        assert ex.progress.memory_pressure_events() > 0
        assert (
            ex.progress.memory_pressure_events()
            == ref_ex.progress.memory_pressure_events()
        )
        assert rows == ref_rows
        assert work == ref_work
        assert_matches_sqlite(db, sql, rows, sqlite_copy(db))


class TestRidProbeInvariant:
    """Fetch-by-RID charges 1 U per page touched, every vector width
    agreeing with the closed form."""

    def _db(self, page_capacity=10):
        db = Database(page_capacity=page_capacity)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        # k repeats every 7 rows, so one key's RIDs spread across pages.
        db.insert_rows("t", [(i % 7, float(i)) for i in range(210)])
        db.execute("CREATE INDEX t_k ON t (k)")
        db.analyze()
        return db

    def test_equality_probe_work_parity(self):
        db = self._db()
        sql = "SELECT v FROM t WHERE k = 3"
        plan = db.explain(sql)
        assert "IndexScan" in plan, plan
        ref_rows, ref_work, _ = run(db, sql)
        assert_matches_sqlite(db, sql, ref_rows)
        for width in BATCH_SIZES:
            rows, work, _ = run(db, sql, batch_size=width)
            assert rows == ref_rows
            assert work == ref_work

    def test_probe_charges_one_u_per_distinct_page(self):
        db = self._db()
        table = db.catalog.table("t")
        index = table.indexes["t_k"]
        rids = index.search(3)
        distinct_pages = len({rid.page_no for rid in rids})
        assert distinct_pages > 1  # the key genuinely spans pages
        _, work, _ = run(db, "SELECT v FROM t WHERE k = 3")
        assert work == index.lookup_cost(len(rids)) + distinct_pages

    def test_range_probe_work_parity(self):
        db = self._db()
        sql = "SELECT v FROM t WHERE k BETWEEN 1 AND 2"
        plan = db.explain(sql)
        assert "RangeIndexScan" in plan, plan
        ref_rows, ref_work, _ = run(db, sql)
        assert_matches_sqlite(db, sql, ref_rows)
        for width in BATCH_SIZES:
            rows, work, _ = run(db, sql, batch_size=width)
            assert rows == ref_rows
            assert work == ref_work

    def test_fetch_builds_identical_tuples(self):
        db = self._db(page_capacity=3)
        table = db.catalog.table("t")
        heap = table.heap
        by_scan = {rid: row for rid, row in heap.scan_rows()}
        for rid, row in by_scan.items():
            assert heap.fetch(rid) == row


class TestPageCapacityPlumbing:
    """Satellite: per-table page_capacity through create_table, catalog
    stats, and EXPLAIN output."""

    def test_create_table_override(self):
        db = Database(page_capacity=50)
        db.create_table("CREATE TABLE small (k INT)", page_capacity=5)
        db.execute("CREATE TABLE dflt (k INT)")
        db.insert_rows("small", [(i,) for i in range(20)])
        db.insert_rows("dflt", [(i,) for i in range(20)])
        assert db.catalog.table("small").heap.page_count == 4
        assert db.catalog.table("dflt").heap.page_count == 1

    def test_override_survives_update_rewrite(self):
        db = Database(page_capacity=50)
        db.create_table("CREATE TABLE s (k INT)", page_capacity=5)
        db.insert_rows("s", [(i,) for i in range(20)])
        db.execute("UPDATE s SET k = k + 1 WHERE k > 5")
        assert db.catalog.table("s").heap.page_capacity == 5
        assert db.catalog.table("s").heap.page_count == 4

    def test_analyze_records_capacity(self):
        db = Database(page_capacity=50)
        db.create_table("CREATE TABLE s (k INT)", page_capacity=7)
        db.insert_rows("s", [(i,) for i in range(10)])
        db.analyze("s")
        assert db.catalog.table("s").stats.page_capacity == 7

    def test_explain_shows_pages_and_capacity(self):
        db = Database(page_capacity=50)
        db.create_table("CREATE TABLE s (k INT)", page_capacity=5)
        db.insert_rows("s", [(i,) for i in range(20)])
        plan = db.explain("SELECT k FROM s")
        assert "SeqScan s" in plan
        assert "[pages=4 cap=5]" in plan

    def test_capacity_sweep_same_results_different_work(self):
        results, works = [], []
        for cap in (2, 10, 100):
            db = Database(page_capacity=cap)
            db.execute("CREATE TABLE t (k INT, v FLOAT)")
            db.insert_rows("t", [(i % 3, float(i)) for i in range(100)])
            rows, work, _ = run(
                db, "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k"
            )
            results.append(rows)
            works.append(work)
        assert results[0] == results[1] == results[2]
        assert works[0] > works[1] > works[2]  # fewer, bigger pages
