"""Tests for cooperative execution, work accounting and progress tracking."""

import random

import pytest

from repro.engine import Database
from repro.engine.errors import ExecutionError
from repro.engine.progress import find_driver_scan


@pytest.fixture()
def db():
    d = Database(page_capacity=10)
    rng = random.Random(1)
    d.execute("CREATE TABLE big (k INT, v FLOAT)")
    d.insert_rows("big", [(i, rng.random()) for i in range(500)])
    d.execute("CREATE TABLE lookup (k INT, w FLOAT)")
    d.insert_rows(
        "lookup", [(i % 100, rng.random()) for i in range(1000)]
    )
    d.execute("CREATE INDEX lookup_k ON lookup (k)")
    d.analyze()
    return d


PAPER_STYLE = (
    "SELECT k FROM big b WHERE b.v > "
    "(SELECT sum(l.w) / count(*) FROM lookup l WHERE l.k = b.k % 100)"
)


class TestWorkAccounting:
    def test_seq_scan_charges_pages(self, db):
        ex = db.prepare("SELECT * FROM big")
        ex.run_to_completion()
        assert ex.work_done == db.catalog.table("big").heap.page_count

    def test_work_independent_of_step_size(self, db):
        totals = []
        for budget in (0.5, 3.0, 1000.0):
            ex = db.prepare(PAPER_STYLE)
            while not ex.finished:
                ex.step(budget)
            totals.append(ex.work_done)
        assert totals[0] == pytest.approx(totals[1]) == pytest.approx(totals[2])

    def test_results_independent_of_step_size(self, db):
        reference = db.query(PAPER_STYLE)
        ex = db.prepare(PAPER_STYLE)
        while not ex.finished:
            ex.step(0.7)
        assert ex.rows == reference

    def test_step_budget_conservation(self, db):
        """Consumed budgets sum to total work despite per-pull overshoot."""
        ex = db.prepare(PAPER_STYLE)
        consumed = 0.0
        while not ex.finished:
            consumed += ex.step(2.0)
        assert consumed == pytest.approx(ex.work_done, rel=0.02)

    def test_step_after_finish_is_zero(self, db):
        ex = db.prepare("SELECT count(*) FROM big")
        ex.run_to_completion()
        assert ex.step(10.0) == 0.0

    def test_negative_budget_rejected(self, db):
        ex = db.prepare("SELECT 1")
        with pytest.raises(ExecutionError):
            ex.step(-1.0)

    def test_index_probe_cheaper_than_seq_scan(self, db):
        seq = db.prepare("SELECT * FROM big WHERE v >= 0")
        seq.run_to_completion()
        probe = db.prepare("SELECT * FROM lookup WHERE k = 5")
        probe.run_to_completion()
        assert probe.work_done < seq.work_done

    def test_column_names(self, db):
        ex = db.prepare("SELECT k AS key, v FROM big")
        assert ex.column_names == ("key", "v")


class TestProgressTracker:
    def test_initial_estimate_is_optimizer_cost(self, db):
        ex = db.prepare(PAPER_STYLE)
        assert ex.progress.estimated_remaining_cost() == pytest.approx(
            ex.root.est_cost
        )

    def test_driver_scan_found(self, db):
        ex = db.prepare(PAPER_STYLE)
        driver = find_driver_scan(ex.root)
        assert driver is not None
        assert driver.table.name == "big"

    def test_refinement_converges(self, db):
        ex = db.prepare(PAPER_STYLE)
        ex.run_to_completion()
        actual = ex.work_done
        errors = []
        ex2 = db.prepare(PAPER_STYLE)
        checkpoints = [0.25, 0.5, 0.75]
        for frac in checkpoints:
            while ex2.work_done < actual * frac and not ex2.finished:
                ex2.step(1.0)
            errors.append(
                abs(ex2.progress.estimated_total_cost() - actual) / actual
            )
        # Estimates become (weakly) more accurate and end close to truth.
        assert errors[-1] <= errors[0] + 0.05
        assert errors[-1] < 0.15

    def test_remaining_reaches_zero(self, db):
        ex = db.prepare(PAPER_STYLE)
        ex.run_to_completion()
        assert ex.progress.estimated_remaining_cost() == 0.0
        assert ex.progress.estimated_total_cost() == ex.work_done

    def test_fraction_monotone(self, db):
        ex = db.prepare("SELECT * FROM big WHERE v > 0.5")
        fractions = []
        while not ex.finished:
            ex.step(5.0)
            fractions.append(ex.progress.driver_fraction())
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_no_driver_falls_back_to_optimizer(self, db):
        ex = db.prepare("SELECT w FROM lookup WHERE k = 7")
        assert find_driver_scan(ex.root) is None
        assert ex.progress.estimated_remaining_cost() == pytest.approx(
            ex.root.est_cost
        )


class TestEstimateQuality:
    def test_estimate_within_factor_two_with_stats(self, db):
        """With fresh statistics the optimizer estimate lands in the right
        ballpark for the paper-style plan (it need not be exact)."""
        ex = db.prepare(PAPER_STYLE)
        est = ex.root.est_cost
        ex.run_to_completion()
        assert est == pytest.approx(ex.work_done, rel=1.0)

    def test_explain_shows_plan_shape(self, db):
        plan = db.explain(PAPER_STYLE)
        assert "SeqScan big" in plan
        assert "Filter" in plan
