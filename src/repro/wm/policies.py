"""Executable maintenance policies (paper Sections 3.3 and 5.3).

Each policy decides, at decision time (the paper's ``rt``, time 0 here),
which running queries to abort so the system can drain by the maintenance
deadline ``t``:

* :func:`decide_no_pi` -- operations O1+O2: abort nothing now; whatever has
  not finished at the deadline is aborted then.
* :func:`decide_single_pi` -- O1+O2'+O3 with a *single-query* PI: each
  query's remaining time is judged as ``c_i / s_i`` under the **current**
  load (the single-query PI assumes the load never changes); while some
  query is predicted to miss the deadline, the query with the largest
  estimated remaining cost is aborted (the paper's stated rule).
* :func:`decide_multi_pi` -- O1+O2'+O3 with the multi-query PI: the greedy
  knapsack plan of :func:`repro.wm.maintenance.plan_maintenance`.

:func:`execute_policy` applies a decision to a
:class:`~repro.sim.rdbms.SimulatedRDBMS`, runs to the deadline, performs
operation O3 (abort stragglers) and reports the realised lost work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.model import QuerySnapshot
from repro.core.validation import finite_snapshots
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.maintenance import LostWorkCase, plan_maintenance

#: A decision function: (snapshots, deadline, processing_rate, case) -> abort ids.
DecisionFn = Callable[[Sequence[QuerySnapshot], float, float, LostWorkCase], tuple[str, ...]]


def decide_no_pi(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
) -> tuple[str, ...]:
    """The no-PI method aborts nothing up front (operation O2 happens later)."""
    return ()


def decide_single_pi(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
) -> tuple[str, ...]:
    """Single-query-PI method: abort largest remaining cost while anyone
    is predicted (under constant current load) to miss the deadline.

    The single-query PI estimates query ``i``'s remaining time as
    ``c_i / s_i`` where ``s_i`` is its *current* speed -- it has no idea the
    load will drop as queries finish, so its estimates are inflated and it
    aborts aggressively (the effect driving paper Figure 11's single-PI
    curve).  After each abort the current speeds are recomputed, since the
    observed load really did drop.
    """
    survivors = [q for q in queries if q.remaining_cost > 0]
    aborted: list[str] = []
    while survivors:
        total_weight = sum(q.weight for q in survivors)
        misses = False
        for q in survivors:
            speed = processing_rate * q.weight / total_weight
            if q.remaining_cost / speed > deadline + 1e-9:
                misses = True
                break
        if not misses:
            break
        victim = max(survivors, key=lambda q: (q.remaining_cost, q.query_id))
        aborted.append(victim.query_id)
        survivors = [q for q in survivors if q.query_id != victim.query_id]
    return tuple(aborted)


def decide_multi_pi(
    queries: Sequence[QuerySnapshot],
    deadline: float,
    processing_rate: float,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
) -> tuple[str, ...]:
    """Multi-query-PI method: the Section 3.3 greedy knapsack plan."""
    plan = plan_maintenance(queries, deadline, processing_rate, case)
    return plan.aborts


@dataclass(frozen=True)
class PolicyOutcome:
    """Realised result of running a maintenance policy to the deadline."""

    #: Queries aborted up front at decision time (operation O2').
    aborted_upfront: tuple[str, ...]
    #: Queries aborted at the deadline because they had not finished (O2/O3).
    aborted_at_deadline: tuple[str, ...]
    #: Queries that ran to completion before the deadline.
    finished: tuple[str, ...]
    #: Realised lost work, U's, under the chosen accounting.
    unfinished_work: float
    #: Total work of the queries considered, U's.
    total_work: float

    @property
    def unfinished_fraction(self) -> float:
        """``UW / TW`` -- the Figure 11 metric."""
        if self.total_work <= 0:
            return 0.0
        return self.unfinished_work / self.total_work


def execute_policy(
    rdbms: SimulatedRDBMS,
    decision: DecisionFn,
    deadline: float,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
    total_costs: dict[str, float] | None = None,
) -> PolicyOutcome:
    """Run a maintenance policy against a live simulated RDBMS.

    The RDBMS is drained (operation O1), the decision function picks the
    up-front aborts from the *estimated* snapshots (what a PI would see),
    the simulation runs until ``now + deadline`` and any unfinished query is
    aborted then (operations O2/O3).

    Parameters
    ----------
    total_costs:
        Ground-truth total cost per query, used for lost-work accounting.
        Defaults to each job's ``completed + estimated remaining``, correct
        for synthetic jobs.  Non-finite estimated costs degrade to the
        work completed so far, so corrupted statistics cannot turn the
        lost-work tally into NaN.
    """
    if deadline < 0:
        raise ValueError("deadline must be >= 0")
    start = rdbms.clock
    rdbms.drain(True)

    considered = list(rdbms.running) + list(rdbms.queued)
    # Decision functions see the PI's view (non-finite estimates included);
    # queries whose snapshots are non-finite are excluded from the up-front
    # decision rather than poisoning it -- operation O3 still catches them.
    system = rdbms.snapshot()
    snapshots = finite_snapshots(list(system.running) + list(system.queued))
    truth = dict(total_costs) if total_costs else {}
    for job in considered:
        estimated = job.estimated_remaining_cost()
        if not math.isfinite(estimated) or estimated < 0:
            estimated = 0.0
        truth.setdefault(job.query_id, job.completed_work + estimated)
    total_work = sum(truth[j.query_id] for j in considered)

    aborts = decision(snapshots, deadline, rdbms.processing_rate, case)
    completed_at_abort: dict[str, float] = {}
    for qid in aborts:
        completed_at_abort[qid] = rdbms.record(qid).job.completed_work
        rdbms.abort(qid)

    rdbms.run_until(start + deadline)

    late: list[str] = []
    for job in list(rdbms.running) + list(rdbms.queued):
        late.append(job.query_id)
        completed_at_abort[job.query_id] = job.completed_work
        rdbms.abort(job.query_id)

    finished = tuple(
        j.query_id
        for j in considered
        if rdbms.record(j.query_id).status == "finished"
    )

    lost = 0.0
    for qid in list(aborts) + late:
        if case is LostWorkCase.COMPLETED_WORK:
            lost += completed_at_abort[qid]
        else:
            lost += truth[qid]

    return PolicyOutcome(
        aborted_upfront=tuple(aborts),
        aborted_at_deadline=tuple(late),
        finished=finished,
        unfinished_work=lost,
        total_work=total_work,
    )
