"""Tests for the top-level public API surface."""

import pytest

import repro


class TestPublicAPI:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_end_to_end_via_top_level_names(self):
        rdbms = repro.SimulatedRDBMS(processing_rate=2.0)
        rdbms.submit(repro.SyntheticJob("a", 10))
        rdbms.submit(repro.SyntheticJob("b", 30))
        pi = repro.MultiQueryProgressIndicator()
        estimate = pi.estimate(rdbms.snapshot())
        assert estimate.for_query("b") == pytest.approx(20.0)
        rdbms.run_to_completion()
        assert rdbms.traces["b"].finished_at == pytest.approx(20.0)

    def test_workload_management_names(self):
        queries = [repro.QuerySnapshot(f"q{i}", 10.0 * (i + 1)) for i in range(3)]
        choice = repro.choose_victim(queries, "q0", 1.0)
        assert choice.victims
        plan = repro.plan_maintenance(queries, 30.0, 1.0)
        exact = repro.exact_maintenance_plan(queries, 30.0, 1.0)
        assert exact.lost_work <= plan.lost_work + 1e-9

    def test_database_name(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (a INT)")
        db.insert_rows("t", [(1,)])
        assert db.query("SELECT a FROM t") == [(1,)]

    def test_standard_case_and_project_names(self):
        queries = [repro.QuerySnapshot("a", 10), repro.QuerySnapshot("b", 20)]
        analytic = repro.standard_case(queries, 1.0)
        projected = repro.project(queries, processing_rate=1.0)
        assert analytic.remaining_times == pytest.approx(
            projected.remaining_times
        )
