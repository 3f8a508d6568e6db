"""One tracker read per snapshot, checked against the reads it replaced.

``EngineJob.snapshot()`` takes its remaining cost and completed work
from a single ``ProgressTracker.read()``.  At every step of every
execution below, those fields must equal -- exactly, not approximately
-- a restatement of the separate reads that pass replaced, computed here
from the execution's public counters: ``account.total``, the driver
scan's ``work_at_start`` and ``progress_fraction()``, and ``paid_work``.

The corpus is the one ``test_progress_properties.py`` runs (both plan
shapes, every vector width, page sizes 1/4/50), stepped with budgets
small enough that the executor banks debt, and taken through three
states: restored from a checkpoint, finished, and carrying outstanding
debt.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.progress import find_driver_scan
from repro.sim.jobs import EngineJob

from tests.engine.test_decorrelate_differential import (
    BATCH_SIZES,
    FALLBACK_CORPUS,
    REWRITTEN_CORPUS,
    build,
    key_value_rows,
)
from tests.engine.test_progress_properties import BUDGETS

CORPUS = REWRITTEN_CORPUS + FALLBACK_CORPUS


def restated(ex):
    """(remaining, completed) as the separate reads gave them.

    Remaining cost: the refined total ``start + (done - start) / fraction``
    (the optimizer's estimate before the driver's pass), floored at the
    work done, minus the work done, floored at 0, plus the outstanding
    debt floored at 0 -- and 0 once finished.  Completed work: the paid
    work.
    """
    done = ex.account.total
    paid = ex.paid_work
    if ex.finished:
        return 0.0, paid
    driver = find_driver_scan(ex.root)
    start = driver.work_at_start if driver is not None else None
    fraction = driver.progress_fraction() if start is not None else 0.0
    if fraction <= 0:
        total = max(ex.progress.optimizer_estimate, done)
    else:
        total = max(start + (done - start) / fraction, done)
    debt = done - paid
    remaining = max(total - done, 0.0) + max(debt, 0.0)
    return max(remaining, 0.0), paid


def assert_snapshot_restates(job):
    snap = job.snapshot()
    expected = restated(job.execution)
    assert (snap.remaining_cost, snap.completed_work) == expected
    assert snap.remaining_cost == max(job.estimated_remaining_cost(), 0.0)
    assert snap.completed_work == job.completed_work
    return snap


def run_checked(job, budget):
    """Step *job* to the end, checking the snapshot before and after each
    step; returns which of the states were seen."""
    ex = job.execution
    seen = {"debt": False, "finished": False}
    snap = assert_snapshot_restates(job)
    while not job.finished:
        job.advance(budget)
        snap = assert_snapshot_restates(job)
        seen["debt"] |= ex.account.total > ex.paid_work
    seen["finished"] = snap.remaining_cost == 0.0
    return seen


@given(
    rows_t=key_value_rows(),
    rows_s=key_value_rows(),
    sql=st.sampled_from(CORPUS),
    decorrelate=st.booleans(),
    width=st.sampled_from(BATCH_SIZES),
    page=st.sampled_from([1, 4, 50]),
    budget=st.sampled_from(BUDGETS),
    cut=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_snapshot_equals_the_restated_reads(
    rows_t, rows_s, sql, decorrelate, width, page, budget, cut
):
    db = build(rows_t, rows_s, page, decorrelate=decorrelate)
    prepare = lambda: db.prepare(sql, batch_size=width)  # noqa: E731
    job = EngineJob("q", prepare())
    for _ in range(cut):
        if job.finished:
            break
        job.advance(budget)
        assert_snapshot_restates(job)
    ckpt = job.execution.checkpoint()
    if ckpt is not None:
        restored = prepare()
        restored.restore(ckpt)
        run_checked(EngineJob("r", restored), budget)
    seen = run_checked(job, budget)
    assert seen["finished"]


class TestEveryState:
    """Each of the states, reached deterministically."""

    ROWS_T = [(i % 60, float(i * 37 % 101)) for i in range(400)]
    ROWS_S = [(i, float(i)) for i in range(60)]

    def db(self):
        return build(self.ROWS_T, self.ROWS_S, 10)

    def test_debt_and_finish(self):
        job = EngineJob("q", self.db().prepare("SELECT k, v FROM t WHERE k >= 0"))
        seen = run_checked(job, 0.5)
        assert seen["debt"] and seen["finished"]

    def test_restored_from_a_checkpoint(self):
        db = self.db()
        sql = "SELECT t.k, (SELECT count(*) FROM s WHERE s.k = t.k) FROM t"
        ex = db.prepare(sql, checkpoint_interval=20.0)
        job = EngineJob("q", ex)
        for _ in range(12):
            job.advance(3.0)
            assert_snapshot_restates(job)
        ckpt = ex.last_checkpoint
        assert ckpt is not None and not ex.finished
        restored = db.prepare(sql, checkpoint_interval=20.0)
        restored.restore(ckpt)
        resumed = EngineJob("q", restored)
        assert 0.0 < assert_snapshot_restates(resumed).completed_work
        assert run_checked(resumed, 3.0)["finished"]
