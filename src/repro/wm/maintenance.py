"""The scheduled maintenance problem (paper Section 3.3).

Maintenance starts at time ``t``.  Operation O1 stops new arrivals at time 0;
the question is which running queries to abort *now* (operation O2') so the
system drains by ``t`` while losing as little work as possible.

Aborting ``Q_i`` shortens the system quiescent time by ``V_i = c_i / C``
(its remaining work no longer has to be processed).  The lost work is

* **Case 1**: ``e_i`` -- the work already completed for the aborted query;
* **Case 2**: ``e_i + c_i`` -- the query's whole cost, since it must rerun.

Maximising saved time while minimising lost work is a knapsack problem; the
paper uses the classic greedy: abort queries in ascending order of
``loss_i / V_i`` until the projected quiescent time meets the deadline.

The paper assumes aborts are free and leaves non-negligible abort overhead
to future work; :func:`plan_maintenance` takes it as an optional
``overhead`` (rollback U's per abort).  :mod:`repro.wm.overhead` holds the
overhead models, the overhead-blind baseline and an exact oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.model import QuerySnapshot

#: Maps a query to its abort (rollback) overhead in U's.
OverheadFn = Callable[[QuerySnapshot], float]


class LostWorkCase(enum.Enum):
    """How the amount of lost work ``Lw`` is accounted (Section 3.3)."""

    #: Lost work = completed work of aborted queries.
    COMPLETED_WORK = 1
    #: Lost work = total cost of aborted queries (they must rerun).
    TOTAL_COST = 2

    def loss_of(self, query: QuerySnapshot) -> float:
        """Lost work if *query* is aborted, under this accounting."""
        if self is LostWorkCase.COMPLETED_WORK:
            return query.completed_work
        return query.completed_work + query.remaining_cost


def quiescent_time(queries: Sequence[QuerySnapshot], processing_rate: float) -> float:
    """Time until all *queries* finish with no arrivals: ``sum(c_i) / C``.

    Under any work-conserving sharing policy the system drains exactly when
    the total outstanding work has been processed.
    """
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")
    return sum(q.remaining_cost for q in queries) / processing_rate


@dataclass(frozen=True)
class MaintenancePlan:
    """Output of maintenance planning: which queries to abort, and why."""

    #: Ids of queries to abort at time 0, in abort order.
    aborts: tuple[str, ...]
    #: Projected time for the surviving queries to drain, seconds.
    projected_quiescent_time: float
    #: Lost work of the aborted queries under the chosen accounting, U's.
    lost_work: float
    #: Total work (sum of total costs) of all queries considered, U's.
    total_work: float
    #: The deadline the plan was built for, seconds.
    deadline: float
    case: LostWorkCase
    #: Rollback work the aborts incur, U's (0 when aborts are free).
    rollback_work: float = 0.0

    @property
    def unfinished_fraction(self) -> float:
        """``UW / TW`` -- the paper's normalised lost-work metric (Fig 11)."""
        if self.total_work <= 0:
            return 0.0
        return self.lost_work / self.total_work

    @property
    def meets_deadline(self) -> bool:
        """Whether the plan is projected to drain in time, rollback included.

        With abort overheads some deadlines are infeasible even aborting
        every query whose abort saves time.
        """
        return self.projected_quiescent_time <= self.deadline + 1e-9


def plan_maintenance(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
    overhead: OverheadFn | None = None,
) -> MaintenancePlan:
    """Greedy maintenance planning (the paper's multi-query-PI method).

    Aborting ``Q_i`` costs ``o_i = overhead(Q_i)`` U's of rollback (0 when
    *overhead* is ``None``, the paper's assumption), so it saves ``V_i =
    (c_i - o_i) / C`` of drain time.  Sort the queries with ``V_i > 0``
    ascending by ``loss_i / V_i`` and abort until the projected quiescent
    time ``(sum_kept c_i + sum_aborted o_i) / C`` is within the deadline
    or no candidate is left -- with overheads a deadline can be
    infeasible, which :attr:`MaintenancePlan.meets_deadline` reports.
    Zero-remaining-cost queries are never aborted (aborting them frees no
    time).

    Raises
    ------
    ValueError
        On a negative deadline, a non-positive processing rate or a
        negative overhead.
    """
    if deadline < 0:
        raise ValueError("deadline must be >= 0")
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")
    rollback_of: dict[str, float] = {}
    if overhead is not None:
        for q in queries:
            o = overhead(q)
            if o < 0:
                raise ValueError(f"negative overhead for {q.query_id!r}")
            rollback_of[q.query_id] = o

    def saving(q: QuerySnapshot) -> float:
        return (q.remaining_cost - rollback_of.get(q.query_id, 0.0)) / processing_rate

    # Abort order: ascending loss per unit of saved time.  Ties prefer the
    # larger remaining cost (more time saved per abort), then id.
    def sort_key(q: QuerySnapshot) -> tuple[float, float, str]:
        return (case.loss_of(q) / saving(q), -q.remaining_cost, q.query_id)

    candidates = sorted((q for q in queries if saving(q) > 0), key=sort_key)

    remaining = sum(q.remaining_cost for q in queries)
    rollback = 0.0
    lost = 0.0
    aborts: list[str] = []
    for q in candidates:
        if (remaining + rollback) / processing_rate <= deadline + 1e-9:
            break
        aborts.append(q.query_id)
        lost += case.loss_of(q)
        remaining -= q.remaining_cost
        rollback += rollback_of.get(q.query_id, 0.0)

    return MaintenancePlan(
        aborts=tuple(aborts),
        projected_quiescent_time=(remaining + rollback) / processing_rate,
        lost_work=lost,
        total_work=sum(q.total_cost for q in queries),
        deadline=deadline,
        case=case,
        rollback_work=rollback,
    )
