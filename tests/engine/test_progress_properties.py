"""Properties of the driver-scan progress estimate over the SQL corpora.

Every query of the decorrelation differential corpora runs under both
plan shapes (decorrelated, and per-row subplans), at every vector width,
stepped with budgets small enough that the executor banks batch debt.
The estimated total must never fall below the work already done, must
equal it at finish, must track the true total once the driver has
consumed its first page, and must survive a checkpoint/restore intact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.progress import find_driver_scan

from tests.engine.test_decorrelate_differential import (
    BATCH_SIZES,
    FALLBACK_CORPUS,
    REWRITTEN_CORPUS,
    build,
    key_value_rows,
)

CORPUS = REWRITTEN_CORPUS + FALLBACK_CORPUS

#: An uncorrelated InitPlan runs once, lazily, on the driver's first row:
#: inside the driver's pipeline, so it is extrapolated like per-row work.
#: That is the driver-scan estimator's known blind spot, and this query
#: is left out of the accuracy property (the others still apply).  Its
#: cached rows are not part of a checkpoint either, so a restore reruns
#: it: see ``test_restore_does_not_recharge_the_initplan``.
INITPLAN = "SELECT t.k FROM t WHERE t.v > (SELECT avg(s.v) FROM s)"

#: Bound on estimate / truth (either way) once the driver has consumed its
#: first page.  Per-row driver work is uniform on this corpus, so what is
#: left is an uneven last page: with page capacity c and two pages the
#: extrapolation reads 2c / (c + 1) < 2 of the truth.  Charging the work
#: of earlier pipelines against the driver fraction reads up to ~15x here.
FACTOR = 2.0

BUDGETS = (0.5, 1.0, 3.0)


def true_total(db, sql, width):
    ex = db.prepare(sql, batch_size=width)
    ex.run_to_completion()
    return ex.work_done


def past_first_page(driver):
    return (
        driver is not None
        and driver.work_at_start is not None
        and driver.progress_fraction() * driver.total_pages >= 1 - 1e-9
    )


@given(
    rows_t=key_value_rows(),
    rows_s=key_value_rows(),
    sql=st.sampled_from(CORPUS),
    decorrelate=st.booleans(),
    width=st.sampled_from(BATCH_SIZES),
    page=st.sampled_from([1, 4, 50]),
    budget=st.sampled_from(BUDGETS),
)
@settings(max_examples=200, deadline=None)
def test_estimate_bounds_over_corpus(
    rows_t, rows_s, sql, decorrelate, width, page, budget
):
    db = build(rows_t, rows_s, page, decorrelate=decorrelate)
    truth = true_total(db, sql, width)
    ex = db.prepare(sql, batch_size=width)
    tracker = ex.progress
    driver = find_driver_scan(ex.root)
    while not ex.finished:
        ex.step(budget)
        total = tracker.estimated_total_cost()
        assert total >= ex.work_done
        if ex.finished or sql == INITPLAN or not past_first_page(driver):
            continue
        assert total <= FACTOR * truth
        assert truth <= FACTOR * total
    assert tracker.estimated_total_cost() == ex.work_done == truth
    assert tracker.estimated_remaining_cost() == 0.0


@given(
    rows_t=key_value_rows(),
    rows_s=key_value_rows(),
    sql=st.sampled_from([q for q in CORPUS if q != INITPLAN]),
    decorrelate=st.booleans(),
    width=st.sampled_from(BATCH_SIZES),
    budget=st.sampled_from(BUDGETS),
    cut=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_restored_execution_reports_the_same_total(
    rows_t, rows_s, sql, decorrelate, width, budget, cut
):
    """From the restore on, a resumed execution and the uninterrupted one
    step in lockstep: same work, same estimated total and remaining."""
    db = build(rows_t, rows_s, 4, decorrelate=decorrelate)
    ex = db.prepare(sql, batch_size=width)
    for _ in range(cut):
        if ex.finished:
            break
        ex.step(budget)
    ckpt = ex.checkpoint()
    if ckpt is None:
        return  # finished, or not checkpointable at this point
    resumed = db.prepare(sql, batch_size=width)
    resumed.restore(ckpt)
    while True:
        assert resumed.work_done == ex.work_done
        assert resumed.progress.estimated_total_cost() == pytest.approx(
            ex.progress.estimated_total_cost()
        )
        assert resumed.progress.estimated_remaining_cost() == pytest.approx(
            ex.progress.estimated_remaining_cost()
        )
        if ex.finished:
            break
        ex.step(budget)
        resumed.step(budget)
    assert resumed.finished
    assert resumed.rows == ex.rows


@pytest.mark.xfail(
    strict=True,
    reason="an InitPlan's cached rows are not checkpointed: a restore "
    "reruns it and charges its work a second time",
)
def test_restore_does_not_recharge_the_initplan():
    db = build([(1, 1.0), (2, 2.0)], [(1, 0.0)], 1)
    ex = db.prepare(INITPLAN)
    ex.step(0.5)
    resumed = db.prepare(INITPLAN)
    resumed.restore(ex.checkpoint())
    ex.run_to_completion()
    resumed.run_to_completion()
    assert resumed.work_done == ex.work_done
