"""Per-query progress tracking: the single-query machinery of [11, 12].

A query starts with the optimizer's cost estimate (in U's).  As execution
proceeds the tracker *refines* the total-cost estimate by extrapolating
from the plan's **driver scan** -- the outermost sequential scan, whose
page progress tells us which fraction of its input has been consumed.

Only the driver's own pipeline is extrapolated.  Work charged before the
driver's pass began (a hash build, a grouped derived table) is already
done and is not scaled by the driver fraction.  With ``start`` the work
total when the pass began (:attr:`SeqScan.work_at_start`), the estimate is

    ``refined_total = start + (work_done - start) / driver_fraction``

floored at ``work_done``.  Because the work counter includes everything
charged downstream (index probes of a correlated subquery, spills, ...),
the extrapolation corrects both cardinality and per-probe cost errors,
exactly the kind of mid-flight refinement the paper's PIs rely on.

Until the driver's pass begins, and in plans without a sequential scan
(pure index lookups), the estimate is the optimizer's, floored at the
work already done.  A restored execution's account is credited with the
checkpointed work, so the floor covers it too.

**Batch-granular charges.**  Work is charged in batch-sized spikes: a
single root pull can consume many driver pages at once, and the executor
banks the overshoot as *debt* that later budgets repay.  Charged-but-unpaid
work is still remaining work from the scheduler's point of view, so the
tracker accepts an ``outstanding_debt`` supplier and adds it to the
remaining-cost estimate.  Estimates stay accurate to within one batch of
the driver scan instead of collapsing to zero the moment the driver's
pages have been pre-charged.

**One read per snapshot.**  A PI refresh snapshots every running query,
so :meth:`ProgressTracker.read` hands a snapshot its remaining cost, paid
work and memory pressure from a single pass over the work account, the
debt and the driver scan.  :meth:`~ProgressTracker.estimated_total_cost`
and :meth:`~ProgressTracker.estimated_remaining_cost` share its body, so
the extrapolation above is written once.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.operators.base import Operator, WorkAccount
from repro.engine.operators.scans import SeqScan


def find_driver_scan(root: Operator) -> Optional[SeqScan]:
    """The plan's driver: the first sequential scan in DFS order."""
    if isinstance(root, SeqScan):
        return root
    for child in root.children():
        found = find_driver_scan(child)
        if found is not None:
            return found
    return None


class ProgressTracker:
    """Refined remaining-cost estimation for one running query."""

    def __init__(
        self,
        root: Operator,
        account: WorkAccount,
        optimizer_estimate: float,
        outstanding_debt: Optional[Callable[[], float]] = None,
    ) -> None:
        if optimizer_estimate < 0:
            raise ValueError("optimizer_estimate must be >= 0")
        self._account = account
        self.optimizer_estimate = optimizer_estimate
        self._driver = find_driver_scan(root)
        self._finished = False
        self._outstanding_debt = outstanding_debt

    @property
    def work_done(self) -> float:
        """Work charged so far, in U's."""
        return self._account.total

    def driver_fraction(self) -> Optional[float]:
        """Input fraction consumed by the driver scan, or None if no driver."""
        if self._driver is None:
            return None
        return self._driver.progress_fraction()

    def mark_finished(self) -> None:
        """Record that the query has completed (remaining cost is 0)."""
        self._finished = True

    def memory_pressure_events(self) -> int:
        """Memory-governance incidents so far (0 without a governor).

        Surfaced in progress snapshots so observers can tell a query that
        slowed down because it degraded under memory pressure from one
        whose inputs were simply mis-estimated.
        """
        governor = self._account.memory
        return governor.pressure_events if governor is not None else 0

    def _total(self, done: float) -> float:
        """The refined total for *done* U's charged (see the module doc)."""
        if self._finished:
            return done
        driver = self._driver
        start = driver.work_at_start if driver is not None else None
        fraction = driver.progress_fraction() if start is not None else 0.0
        if fraction <= 0:
            return max(self.optimizer_estimate, done)
        refined = start + (done - start) / fraction
        return done if done > refined else refined

    def read(self) -> tuple[float, float, int]:
        """Remaining cost, paid work and memory pressure, from one pass.

        What a progress snapshot needs, taken with one read of the work
        account, the debt and the driver scan.  *Remaining cost* is the
        PI's ``c``: the refined total minus the work charged, plus the
        executor's outstanding debt (floored at 0) -- a pull can
        pre-charge a whole batch the scheduler has not yet paid for, and
        that work is still ahead of the query.  *Paid work* is the work
        charged minus the raw debt, floored at 0 (the executor's
        ``paid_work``).  *Memory pressure* counts the governor's
        incidents (0 without one).

        Every snapshot of a refresh comes through here, so the clamps are
        spelled ``0.0 if 0.0 > x else x``: exactly ``max(x, 0.0)``, NaN
        included, without the cost of a builtin call.
        """
        account = self._account
        done = account.total
        debt = 0.0 if self._outstanding_debt is None else self._outstanding_debt()
        governor = account.memory
        pressure = 0 if governor is None else governor.pressure_events
        paid = done - debt
        paid = 0.0 if 0.0 > paid else paid
        if self._finished:
            return 0.0, paid, pressure
        remaining = self._total(done) - done
        remaining = 0.0 if 0.0 > remaining else remaining
        return remaining + (0.0 if 0.0 > debt else debt), paid, pressure

    def estimated_total_cost(self) -> float:
        """Current refined estimate of the query's total cost, in U's."""
        return self._total(self._account.total)

    def estimated_remaining_cost(self) -> float:
        """Refined remaining cost in U's (the PI's ``c``; see :meth:`read`)."""
        return self.read()[0]
