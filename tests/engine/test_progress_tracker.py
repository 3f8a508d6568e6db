"""Direct unit tests for the ProgressTracker refinement logic."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.operators.base import WorkAccount
from repro.engine.operators.scans import SeqScan
from repro.engine.operators.transforms import Filter
from repro.engine.progress import ProgressTracker, find_driver_scan
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType

from tests.engine.helpers import per_row, rows_of


def make_scan(rows=100, page_capacity=10):
    catalog = Catalog(page_capacity=page_capacity)
    schema = TableSchema.of("t", [Column("k", SqlType.INTEGER)])
    table = catalog.create_table(schema)
    for i in range(rows):
        table.insert((i,))
    account = WorkAccount()
    return SeqScan(table, "t", account), account


class TestDriverDiscovery:
    def test_finds_scan_through_wrappers(self):
        scan, _ = make_scan()
        wrapped = Filter(scan, per_row(lambda row: True))
        assert find_driver_scan(wrapped) is scan

    def test_none_without_scan(self):
        from repro.engine.operators.transforms import SingleRow

        assert find_driver_scan(SingleRow(WorkAccount())) is None


class TestTracker:
    def test_initial_estimate(self):
        scan, account = make_scan()
        tracker = ProgressTracker(scan, account, optimizer_estimate=42.0)
        assert tracker.estimated_remaining_cost() == 42.0
        assert tracker.completed_fraction() == 0.0

    def test_extrapolation_converges_on_uniform_work(self):
        scan, account = make_scan(rows=100, page_capacity=10)
        tracker = ProgressTracker(scan, account, optimizer_estimate=5.0)
        it = rows_of(scan)
        for _ in range(60):  # 6 pages
            next(it)
        # True total is 10 pages; the optimizer lowballed at 5.
        assert tracker.estimated_total_cost() == pytest.approx(10.0, rel=0.2)

    def test_estimate_floor_is_work_done(self):
        scan, account = make_scan(rows=100, page_capacity=10)
        tracker = ProgressTracker(scan, account, optimizer_estimate=1.0)
        list(rows_of(scan))
        assert tracker.estimated_total_cost() >= tracker.work_done

    def test_mark_finished_zeroes_remaining(self):
        scan, account = make_scan()
        tracker = ProgressTracker(scan, account, optimizer_estimate=100.0)
        tracker.mark_finished()
        assert tracker.estimated_remaining_cost() == 0.0
        assert tracker.completed_fraction() == 1.0 or account.total == 0

    def test_no_driver_uses_optimizer_estimate(self):
        from repro.engine.operators.transforms import SingleRow

        account = WorkAccount()
        tracker = ProgressTracker(SingleRow(account), account, 7.0)
        assert tracker.driver_fraction() is None
        assert tracker.estimated_remaining_cost() == 7.0

    def test_validation(self):
        scan, account = make_scan()
        with pytest.raises(ValueError):
            ProgressTracker(scan, account, optimizer_estimate=-1.0)
        with pytest.raises(ValueError):
            ProgressTracker(scan, account, 1.0, blend_until=0.0)
        with pytest.raises(ValueError):
            ProgressTracker(scan, account, 1.0, blend_until=1.5)

    def test_blend_weights_early_fraction(self):
        scan, account = make_scan(rows=100, page_capacity=10)
        tracker = ProgressTracker(
            scan, account, optimizer_estimate=100.0, blend_until=0.5
        )
        it = rows_of(scan)
        next(it)  # tiny fraction: optimizer estimate dominates
        assert tracker.estimated_total_cost() > 50.0


class TestRestoreFloor:
    """Checkpointed work floors the estimate after a restore."""

    def test_restored_work_floors_driverless_estimate(self):
        """Regression: an index-only plan (no driver scan) must not report
        a total below the work a restored checkpoint proves was done."""
        from repro.engine.operators.transforms import SingleRow

        account = WorkAccount()
        tracker = ProgressTracker(SingleRow(account), account, 7.0)
        tracker.note_restore(30.0)
        assert tracker.estimated_total_cost() >= 30.0

    def test_restore_floor_keeps_maximum(self):
        from repro.engine.operators.transforms import SingleRow

        account = WorkAccount()
        tracker = ProgressTracker(SingleRow(account), account, 7.0)
        tracker.note_restore(30.0)
        tracker.note_restore(10.0)  # later, smaller note must not lower it
        assert tracker.estimated_total_cost() >= 30.0

    def test_restore_rejects_negative_work(self):
        scan, account = make_scan()
        tracker = ProgressTracker(scan, account, optimizer_estimate=5.0)
        with pytest.raises(ValueError):
            tracker.note_restore(-1.0)

    def test_restored_execution_estimate_floored(self):
        """End to end: restoring a checkpoint credits the account and the
        tracker never estimates a total below the credited work."""
        import random

        from repro.engine import Database

        d = Database(page_capacity=10)
        rng = random.Random(11)
        d.execute("CREATE TABLE t (k INT, v FLOAT)")
        d.insert_rows("t", [(i, rng.random()) for i in range(300)])
        d.analyze()
        sql = "SELECT * FROM t"
        ex = d.prepare(sql)
        while not ex.finished and ex.work_done < 12.0:
            ex.step(1.0)
        ckpt = ex.checkpoint()
        assert ckpt is not None

        resumed = d.prepare(sql)
        resumed.restore(ckpt)
        assert resumed.progress.estimated_total_cost() >= ckpt.work_done
