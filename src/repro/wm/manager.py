"""Adaptive workload management: revise decisions as estimates change.

The paper (Sections 1 and 4) stresses that PI-driven workload management is
*dynamic*: "PIs are used to continuously monitor the system status.  If the
system status differs significantly from what was predicted, the original
workload management decisions are revised accordingly."

:class:`AdaptiveMaintenanceManager` implements that loop for the scheduled
maintenance problem: it plans an abort set at decision time, then
re-evaluates periodically from live PI estimates; if the projected drain
time has drifted past the deadline (estimates were too optimistic), it
aborts more queries -- always by the same greedy loss-per-saved-second rule.
It never "un-aborts": revisions are monotone, as in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.validation import carry_back, finite_snapshots
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.maintenance import LostWorkCase, plan_maintenance


@dataclass
class RevisionEvent:
    """One manager wake-up: what it saw and what it did."""

    time: float
    projected_drain: float
    time_left: float
    aborted: tuple[str, ...]
    #: Queries planned from carried-back (stale) estimates this revision.
    degraded: tuple[str, ...] = ()


@dataclass
class AdaptiveMaintenanceManager:
    """Plan-and-revise controller for one maintenance deadline.

    Parameters
    ----------
    rdbms:
        The simulated RDBMS to manage.
    deadline:
        Absolute virtual time by which the system must be quiescent.
    check_interval:
        How often (virtual seconds) to re-check the projection.
    case:
        Lost-work accounting (Section 3.3 Case 1 or Case 2).
    slack:
        Tolerated overshoot (seconds) before a revision triggers, guarding
        against churn from tiny estimate wobbles.
    """

    rdbms: SimulatedRDBMS
    deadline: float
    check_interval: float = 5.0
    case: LostWorkCase = LostWorkCase.TOTAL_COST
    slack: float = 1e-6
    events: list[RevisionEvent] = field(default_factory=list)
    total_aborted: list[str] = field(default_factory=list)
    #: Last finite remaining-cost seen per live query, for carry-back
    #: when a later snapshot turns non-finite.
    _last_finite: dict[str, float] = field(default_factory=dict)

    def start(self) -> None:
        """Engage: drain the system, make the initial plan, arm the timer."""
        self.rdbms.drain(True)
        self._revise()  # initial decision (operation O2')
        self.rdbms.add_sampler(self.check_interval, self._on_tick)

    def _on_tick(self, rdbms: SimulatedRDBMS) -> None:
        if rdbms.clock < self.deadline:
            self._revise()

    def _revise(self) -> None:
        """Re-plan from live estimates; abort extra queries if needed.

        Estimates are read through the system snapshot (what a PI would
        see), so corrupted statistics reach the manager.  Queries whose
        snapshots turn non-finite are *not* dropped wholesale: the last
        finite remaining-cost observed for each is carried back so they
        stay in the plan (flagged in the revision event), and only
        queries that never reported a finite cost are left out of this
        revision -- they are reconsidered at the next wake-up, and
        operation O3 still catches them at the deadline.  Departed
        queries are forgotten (:func:`~repro.core.validation.carry_back`).
        """
        now = self.rdbms.clock
        time_left = max(self.deadline - now, 0.0)
        system = self.rdbms.snapshot()
        sanitized, degraded = carry_back(
            system.running + system.queued, self._last_finite
        )
        running = finite_snapshots(sanitized)
        plan = plan_maintenance(
            running, time_left + self.slack, self.rdbms.processing_rate, self.case
        )
        for qid in plan.aborts:
            self.rdbms.abort(qid)
            self.total_aborted.append(qid)
        self.events.append(
            RevisionEvent(
                time=now,
                projected_drain=plan.projected_quiescent_time,
                time_left=time_left,
                aborted=plan.aborts,
                degraded=degraded,
            )
        )
        obs = self.rdbms.obs
        if obs is not None:
            obs.metrics.counter("manager.revisions").inc()
            if plan.aborts:
                obs.metrics.counter("manager.revision_aborts").inc(
                    len(plan.aborts)
                )
            obs.tracer.emit(
                "manager.revise",
                now,
                projected_drain=plan.projected_quiescent_time,
                time_left=time_left,
                aborted=len(plan.aborts),
                aborted_ids=",".join(plan.aborts),
            )

    def finish(self) -> tuple[str, ...]:
        """Operation O3 at the deadline: abort whatever is still unfinished.

        Returns the ids aborted at the deadline.
        """
        late = []
        for job in list(self.rdbms.running) + list(self.rdbms.queued):
            late.append(job.query_id)
            self.rdbms.abort(job.query_id)
            self.total_aborted.append(job.query_id)
        return tuple(late)

    @property
    def revision_count(self) -> int:
        """Number of wake-ups that actually aborted something (after t=0)."""
        return sum(1 for e in self.events[1:] if e.aborted)


def run_adaptive_maintenance(
    rdbms: SimulatedRDBMS,
    deadline: float,
    check_interval: float = 5.0,
    case: LostWorkCase = LostWorkCase.TOTAL_COST,
) -> AdaptiveMaintenanceManager:
    """Run a full managed maintenance window and return the manager.

    Convenience wrapper: starts the manager at the current virtual time,
    runs to the (absolute) deadline, performs O3, and returns the manager
    with its revision log.
    """
    if deadline < rdbms.clock:
        raise ValueError("deadline is in the past")
    manager = AdaptiveMaintenanceManager(
        rdbms=rdbms,
        deadline=deadline,
        check_interval=check_interval,
        case=case,
    )
    manager.start()
    rdbms.run_until(deadline)
    manager.finish()
    return manager
