"""Tests for the TPC-R-style data generator and the paper's queries."""

import pytest

from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.queries import (
    engine_job,
    join_query,
    paper_query,
    prepare_paper_query,
    scan_query,
)
from repro.workload.tpcr import TpcrConfig, generate

from tests.engine.helpers import undecorrelated


@pytest.fixture(scope="module")
def dataset():
    return generate(TpcrConfig(scale=1 / 4000, seed=3), part_sizes={1: 3, 2: 1})


class TestGenerator:
    def test_lineitem_size_scales(self, dataset):
        cfg = dataset.config
        lineitem = dataset.db.catalog.table("lineitem")
        assert lineitem.heap.row_count == cfg.lineitem_tuples
        assert cfg.lineitem_tuples == 6000

    def test_part_tables_sized_ten_n(self, dataset):
        part1 = dataset.db.catalog.table("part_1")
        part2 = dataset.db.catalog.table("part_2")
        assert part1.heap.row_count == 30  # 10 * N_1
        assert part2.heap.row_count == 10

    def test_matches_per_part(self, dataset):
        """Each part tuple matches ~30 lineitem tuples on partkey."""
        db = dataset.db
        rows = db.query(
            "SELECT count(*) FROM part_1 p JOIN lineitem l ON l.partkey = p.partkey"
        )
        matches_per_part = rows[0][0] / 30
        assert matches_per_part == pytest.approx(30, rel=0.01)

    def test_distinct_partkeys_in_part_table(self, dataset):
        db = dataset.db
        total, distinct = db.query(
            "SELECT count(*), count(DISTINCT partkey) FROM part_1"
        )[0]
        assert total == distinct

    def test_lineitem_index_exists(self, dataset):
        table = dataset.db.catalog.table("lineitem")
        assert table.index_on("partkey") is not None

    def test_table_summary_shape(self, dataset):
        summary = dataset.table_summary()
        names = [name for name, _, _ in summary]
        assert names == ["lineitem", "part_1", "part_2"]
        for _, rows, pages in summary:
            assert rows > 0 and pages > 0

    def test_deterministic(self):
        a = generate(TpcrConfig(scale=1 / 8000, seed=9), part_sizes={1: 2})
        b = generate(TpcrConfig(scale=1 / 8000, seed=9), part_sizes={1: 2})
        assert a.db.query(paper_query(1)) == b.db.query(paper_query(1))


class TestPaperQueries:
    def test_paper_query_plans_index_scan(self, dataset):
        plan = dataset.db.explain(paper_query(1))
        assert "IndexScan" not in plan.split("\n")[0]  # outer is a seq scan
        assert "SeqScan part_1" in plan

    def test_paper_query_decorrelates_to_left_join(self, dataset):
        # The correlated scalar subquery is rewritten into a grouped
        # subplan LEFT-joined on partkey -- the vectorized batch path.
        plan = dataset.db.explain(paper_query(1))
        assert "HashLeftJoin" in plan
        assert "HashAggregate" in plan
        fallback = undecorrelated(dataset.db).explain(paper_query(1))
        assert "HashLeftJoin" not in fallback

    def test_paper_query_selects_some_parts(self, dataset):
        rows = dataset.db.query(paper_query(1))
        assert 0 < len(rows) < 30

    def test_join_and_scan_queries_run(self, dataset):
        assert len(dataset.db.query(join_query(1))) <= 10
        dataset.db.query(scan_query(2))

    def test_query_index_validation(self):
        with pytest.raises(ValueError):
            paper_query(0)
        with pytest.raises(ValueError):
            join_query(0)
        with pytest.raises(ValueError):
            scan_query(-1)

    def test_prepare_gives_steppable_execution(self, dataset):
        ex = prepare_paper_query(dataset.db, 1)
        assert ex.root.est_cost > 0
        ex.step(5.0)
        assert 0 < ex.work_done
        assert not ex.finished

    def test_cost_scales_with_part_size(self, dataset):
        # Decorrelated plans are page-granular, so the two tiny part
        # tables may tie; the estimate must never shrink as N grows.
        c1 = dataset.db.estimated_cost(paper_query(1))  # N=3 -> 30 rows
        c2 = dataset.db.estimated_cost(paper_query(2))  # N=1 -> 10 rows
        assert c1 >= c2
        # The per-row fallback path keeps the strict scaling the PI
        # experiments rely on.
        naive = undecorrelated(dataset.db)
        f1 = naive.estimated_cost(paper_query(1))
        f2 = naive.estimated_cost(paper_query(2))
        assert f1 > f2


class TestEngineJobsUnderSimulator:
    def test_concurrent_paper_queries(self, dataset):
        rdbms = SimulatedRDBMS(processing_rate=100.0, quantum=0.25)
        jobs = [engine_job(dataset.db, f"Q{i}", i) for i in (1, 2)]
        for job in jobs:
            rdbms.submit(job)
        rdbms.run_to_completion(max_time=1e6)
        for job in jobs:
            assert job.finished
            assert rdbms.record(job.query_id).status == "finished"
            assert job.execution.rows == dataset.db.query(
                paper_query(int(job.query_id[1:]))
            )

    def test_estimates_refine_during_simulation(self, dataset):
        rdbms = SimulatedRDBMS(processing_rate=50.0, quantum=0.25)
        job = engine_job(dataset.db, "Q1", 1)
        initial = job.estimated_remaining_cost()
        rdbms.submit(job)
        rdbms.run_until(1.0)
        mid = job.estimated_remaining_cost()
        assert 0 < mid < initial

    def test_engine_jobs_respect_admission_queue(self, dataset):
        """The NAQ mechanics (paper §2.3) with real SQL executions."""
        rdbms = SimulatedRDBMS(
            processing_rate=100.0, quantum=0.25, multiprogramming_limit=1
        )
        q1 = engine_job(dataset.db, "Q1", 1)
        q2 = engine_job(dataset.db, "Q2", 2)
        rdbms.submit(q1)
        rdbms.submit(q2)
        assert rdbms.record("Q2").status == "queued"
        rdbms.run_to_completion(max_time=1e6)
        t1 = rdbms.traces["Q1"]
        t2 = rdbms.traces["Q2"]
        assert t2.started_at == pytest.approx(t1.finished_at, abs=0.5)
        assert q2.execution.rows == dataset.db.query(paper_query(2))

    def test_blocking_engine_job_freezes_progress(self, dataset):
        rdbms = SimulatedRDBMS(processing_rate=20.0, quantum=0.25)
        job = engine_job(dataset.db, "Q1", 1)
        filler = engine_job(dataset.db, "Q2", 2)
        rdbms.submit(job)
        rdbms.submit(filler)
        rdbms.run_until(1.0)
        rdbms.block("Q1")
        frozen = job.completed_work
        rdbms.run_until(3.0)
        assert job.completed_work == frozen
        rdbms.unblock("Q1")
        rdbms.run_to_completion(max_time=1e6)
        assert job.finished
