"""Per-query progress tracking: the single-query machinery of [11, 12].

A query starts with the optimizer's cost estimate (in U's).  As execution
proceeds the tracker *refines* the total-cost estimate by extrapolating
from the plan's **driver scan** -- the outermost sequential scan, whose
page progress tells us which fraction of the input has been consumed.
Because the work counter includes everything charged downstream (index
probes of a correlated subquery, spills, ...), the extrapolation

    ``refined_total = work_done / driver_fraction``

automatically corrects both cardinality and per-probe cost errors, exactly
the kind of mid-flight refinement the paper's PIs rely on.  Early in the
run (driver fraction below ``blend_until``) the optimizer estimate and the
extrapolation are blended linearly to avoid wild small-sample swings.

Plans without a sequential scan (pure index lookups) fall back to the
optimizer estimate, floored at the work already done.

**Batch-granular charges.**  Work is charged in batch-sized spikes: a
single root pull can consume many driver pages at once, and the executor
banks the overshoot as *debt* that later budgets repay.  Charged-but-unpaid work is still remaining work from the
scheduler's point of view, so the tracker accepts an
``outstanding_debt`` supplier and adds it to the remaining-cost
estimate (and subtracts it from the completed fraction).  Estimates stay
accurate to within one batch of the driver scan instead of collapsing to
zero the moment the driver's pages have been pre-charged.
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
        blend_until: float = 0.05,
        outstanding_debt: Optional[Callable[[], float]] = None,
    ) -> None:
        if optimizer_estimate < 0:
            raise ValueError("optimizer_estimate must be >= 0")
        if not 0 < blend_until <= 1:
            raise ValueError("blend_until must be in (0, 1]")
        self._root = root
        self._account = account
        self.optimizer_estimate = optimizer_estimate
        self._blend_until = blend_until
        self._driver = find_driver_scan(root)
        self._finished = False
        self._restored_work = 0.0
        self._outstanding_debt = outstanding_debt

    def _debt(self) -> float:
        """Charged-but-unpaid work banked by the executor (0 without one)."""
        if self._outstanding_debt is None:
            return 0.0
        return max(self._outstanding_debt(), 0.0)

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

    def note_restore(self, work_done: float) -> None:
        """Record that the execution resumed from a checkpoint.

        The checkpointed work becomes a floor on the total-cost estimate:
        an index-only plan (no driver scan) would otherwise fall back to
        the bare optimizer estimate and report a total *below* the work
        provably already performed.
        """
        if work_done < 0:
            raise ValueError("work_done must be >= 0")
        self._restored_work = max(self._restored_work, work_done)

    def memory_pressure_events(self) -> int:
        """Memory-governance incidents so far (0 without a governor).

        Surfaced in progress snapshots so observers can tell a query that
        slowed down because it degraded under memory pressure from one
        whose inputs were simply mis-estimated.
        """
        governor = self._account.memory
        return governor.pressure_events if governor is not None else 0

    def estimated_total_cost(self) -> float:
        """Current refined estimate of the query's total cost, in U's."""
        done = self.work_done
        if self._finished:
            return done
        fraction = self.driver_fraction()
        if fraction is None or fraction <= 0:
            return max(self.optimizer_estimate, done, self._restored_work)
        extrapolated = done / fraction
        if fraction < self._blend_until:
            weight = fraction / self._blend_until
            blended = (
                weight * extrapolated + (1.0 - weight) * self.optimizer_estimate
            )
        else:
            blended = extrapolated
        return max(blended, done)

    def estimated_remaining_cost(self) -> float:
        """Refined remaining cost in U's (the PI's ``c``).

        Includes the executor's outstanding work debt: a pull can
        pre-charge a whole batch of work that the scheduler has not yet
        paid for, and that work is still ahead of the query.
        """
        if self._finished:
            return 0.0
        remaining = max(self.estimated_total_cost() - self.work_done, 0.0)
        return remaining + self._debt()

    def completed_fraction(self) -> float:
        """Fraction of the (refined) total completed so far."""
        if self._finished:
            return 1.0
        total = self.estimated_total_cost()
        if total <= 0:
            return 0.0
        paid = max(self.work_done - self._debt(), 0.0)
        return min(paid / total, 1.0)
