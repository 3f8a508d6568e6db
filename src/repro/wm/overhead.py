"""Abort-overhead-aware maintenance planning (the paper's future work).

Section 3.3 assumes "the overhead of aborting queries is negligible
compared to the query execution cost ... In general, aborting jobs may
introduce non-negligible overhead.  How to handle this case is left as an
interesting area for future work."  This module models that extension.

Model: aborting ``Q_i`` triggers ``o_i`` U's of rollback work that the
system must process before it is quiescent.  Aborting therefore shortens
the quiescent time by only

    ``V_i = (c_i - o_i) / C``

and queries whose rollback costs at least their remaining work (``o_i >=
c_i``) are never worth aborting.  The greedy rule generalises naturally:
abort in ascending order of ``loss_i / V_i`` over the candidates with
``V_i > 0``, until the projected quiescent time

    ``(sum_kept c_i + sum_aborted o_i) / C``

meets the deadline (or no useful candidate remains -- with overheads, a
deadline can be genuinely infeasible).  That greedy is
:func:`~repro.wm.maintenance.plan_maintenance` with ``overhead=``; this
module holds the overhead models, the overhead-blind baseline and an exact
oracle via subset enumeration, for evaluation.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from typing import Sequence

from repro.core.model import QuerySnapshot
from repro.wm.maintenance import (
    LostWorkCase,
    MaintenancePlan,
    OverheadFn,
    plan_maintenance,
)


def proportional_overhead(fraction: float) -> OverheadFn:
    """Overhead proportional to completed work (undo-log style rollback)."""
    if fraction < 0:
        raise ValueError("fraction must be >= 0")
    return lambda q: fraction * q.completed_work


def constant_overhead(units: float) -> OverheadFn:
    """Fixed per-abort overhead in U's."""
    if units < 0:
        raise ValueError("units must be >= 0")
    return lambda q: units


def plan_ignoring_overhead(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    overhead: OverheadFn,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
) -> MaintenancePlan:
    """The naive baseline: plan as if aborts were free, then pay anyway.

    Uses the Section 3.3 greedy (overhead-blind) to choose aborts, then
    reports the *true* projected drain time including the rollback work the
    plan did not account for.  Used by the ablation bench to quantify the
    value of overhead awareness.
    """
    blind = plan_maintenance(queries, deadline, processing_rate, case)
    by_id = {q.query_id: q for q in queries}
    rollback = sum(overhead(by_id[qid]) for qid in blind.aborts)
    aborted = set(blind.aborts)
    remaining = sum(q.remaining_cost for q in queries if q.query_id not in aborted)
    return replace(
        blind,
        projected_quiescent_time=(remaining + rollback) / processing_rate,
        rollback_work=rollback,
    )


def exact_plan_with_overhead(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    overhead: OverheadFn,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
    enumeration_limit: int = 18,
) -> MaintenancePlan:
    """Exact overhead-aware optimum by subset enumeration (small n).

    Minimises lost work over all feasible abort sets; if no set is
    feasible, returns the set with the smallest projected drain time
    (breaking ties by lost work).

    Raises
    ------
    ValueError
        If ``len(queries)`` exceeds *enumeration_limit*.
    """
    if len(queries) > enumeration_limit:
        raise ValueError(
            f"exact enumeration limited to {enumeration_limit} queries"
        )
    if deadline < 0:
        raise ValueError("deadline must be >= 0")
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")

    total_work = sum(q.total_cost for q in queries)
    total_remaining = sum(q.remaining_cost for q in queries)
    best: MaintenancePlan | None = None

    ids = list(range(len(queries)))
    for r in range(len(queries) + 1):
        for combo in combinations(ids, r):
            aborted = [queries[i] for i in combo]
            rollback = sum(overhead(q) for q in aborted)
            remaining = total_remaining - sum(q.remaining_cost for q in aborted)
            drain = (remaining + rollback) / processing_rate
            lost = sum(case.loss_of(q) for q in aborted)
            plan = MaintenancePlan(
                aborts=tuple(q.query_id for q in aborted),
                projected_quiescent_time=drain,
                lost_work=lost,
                total_work=total_work,
                deadline=deadline,
                case=case,
                rollback_work=rollback,
            )
            feasible = plan.meets_deadline
            if best is None:
                best = plan
                continue
            if feasible and not best.meets_deadline:
                best = plan
            elif feasible and best.meets_deadline and lost < best.lost_work - 1e-12:
                best = plan
            elif (
                not feasible
                and not best.meets_deadline
                and (
                    drain < best.projected_quiescent_time - 1e-12
                    or (
                        abs(drain - best.projected_quiescent_time) <= 1e-12
                        and lost < best.lost_work - 1e-12
                    )
                )
            ):
                best = plan
    assert best is not None
    return best
