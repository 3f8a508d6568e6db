"""PI-driven admission control in front of the simulated RDBMS.

``SimulatedRDBMS.submit`` admits unconditionally; under overload that
turns every deadline into a casualty at once.  The
:class:`AdmissionController` sits in front of it and makes the shared
:class:`~repro.core.incremental.IncrementalSchedule` projection the
gatekeeper, not just the reporter: before admitting a newcomer it asks
whether the newcomer *plus every deadline-bearing query already in the
system* would still finish on time under weighted fair sharing.  Each
submission gets a typed decision:

* **admit** -- budgets hold and the projection says every deadline
  (including the newcomer's) is still feasible;
* **degrade** -- the full-weight newcomer would break a deadline, but a
  demoted (tiny-weight) admission would not: the query runs best-effort;
* **defer** -- an in-flight budget is exhausted or even degraded
  admission is infeasible; the decision carries a *virtual-time
  retry-after* derived from the projection's next completion, and the
  controller re-gates the job automatically at that time;
* **reject** -- the system is draining, the newcomer's class is below
  the current pressure floor (see :meth:`set_pressure`), its deadline
  could not be met even alone, or it has been deferred too many times.

The feasibility check runs on a *fresh* schedule over the live queries'
own job snapshots; when those snapshots are non-finite the check degrades
to budgets only (robustness: the gate must keep functioning when the
projection cannot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

from repro.core.incremental import IncrementalSchedule
from repro.core.model import DEMOTED_PRIORITY, weight_for_priority
from repro.sim.jobs import Job
from repro.sim.rdbms import QueryRecord, SimulatedRDBMS

_EPS = 1e-9

Outcome = Literal["admit", "degrade", "defer", "reject"]

#: Floor on the defer retry-after gap, virtual seconds.
MIN_RETRY_DELAY = 0.5
#: ``(pressure_level, priority_floor)`` pairs: at ladder pressure >=
#: *level*, newcomers with priority < *floor* are rejected.  The lowest
#: class goes at rung 2, everything below normal priority at rung 3.
PRESSURE_FLOORS = ((2, 0), (3, 1))


def priority_floor(pressure: int) -> int | None:
    """The strictest class floor active at *pressure*, or ``None``."""
    floors = [limit for level, limit in PRESSURE_FLOORS if pressure >= level]
    return max(floors, default=None)


@dataclass(frozen=True)
class AdmissionDecision:
    """One typed admission decision, with its justification."""

    time: float
    query_id: str
    #: ``"admit"``, ``"degrade"``, ``"defer"`` or ``"reject"``.
    outcome: Outcome
    reason: str
    #: Absolute virtual time at which a deferred query should retry.
    retry_after: float | None = None
    #: Priority the query was demoted to, for ``"degrade"`` admissions.
    demoted_priority: int | None = None

    @property
    def admitted(self) -> bool:
        """True when the query actually entered the system."""
        return self.outcome in ("admit", "degrade")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Budgets and class floors for an :class:`AdmissionController`.

    Attributes
    ----------
    max_in_flight:
        Cap on live (queued + running + blocked) queries; ``None`` for
        unlimited.
    work_budget:
        Cap on work in flight -- the sum of live queries' estimated
        remaining costs, in U's; ``None`` for unlimited.
    allow_degrade:
        Whether infeasible-at-full-weight newcomers without deadlines may
        be admitted at :data:`~repro.core.model.DEMOTED_PRIORITY` instead
        of deferred.
    max_defers:
        Deferrals allowed per query before it is rejected outright.
    """

    max_in_flight: int | None = None
    work_budget: float | None = None
    allow_degrade: bool = True
    max_defers: int = 25

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1 or None, got {self.max_in_flight}"
            )
        if self.work_budget is not None and (
            not math.isfinite(self.work_budget) or self.work_budget <= 0
        ):
            raise ValueError(
                f"work_budget must be finite and > 0, got {self.work_budget}"
            )
        if self.max_defers < 0:
            raise ValueError(f"max_defers must be >= 0, got {self.max_defers}")


class AdmissionController:
    """Gates submissions to one :class:`SimulatedRDBMS`.

    Use :meth:`submit` as the front door instead of ``rdbms.submit``;
    call :meth:`attach` to also gate scripted
    :class:`~repro.sim.arrivals.ArrivalSchedule` arrivals (the simulator
    consults ``rdbms.admission_controller`` when processing them).

    Parameters
    ----------
    rdbms:
        The simulator to protect.
    policy:
        Budgets; defaults to none (the feasibility check alone).
    auto_retry:
        Schedule a virtual-time event that re-gates each deferred job at
        its retry-after time.  Deferred jobs keep their *relative*
        deadlines -- the clock starts at actual admission.
    """

    def __init__(
        self,
        rdbms: SimulatedRDBMS,
        policy: AdmissionPolicy | None = None,
        auto_retry: bool = True,
    ) -> None:
        self._rdbms = rdbms
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._auto_retry = auto_retry
        self._pressure = 0
        self._defer_counts: dict[str, int] = {}
        #: Chronological log of every decision taken.
        self.decisions: list[AdmissionDecision] = []
        #: Latest decision per query id.
        self.outcomes: dict[str, AdmissionDecision] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self) -> "AdmissionController":
        """Route the simulator's scripted arrivals through this gate."""
        self._rdbms.admission_controller = self
        return self

    def set_pressure(self, level: int) -> None:
        """Raise/lower the overload pressure (set by the ladder's rung)."""
        if level < 0:
            raise ValueError(f"pressure must be >= 0, got {level}")
        self._pressure = level

    @property
    def pressure(self) -> int:
        """Current overload pressure level (0 = calm)."""
        return self._pressure

    def counts(self) -> dict[str, int]:
        """Decision totals by outcome."""
        out = {"admit": 0, "degrade": 0, "defer": 0, "reject": 0}
        for d in self.decisions:
            out[d.outcome] += 1
        return out

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> AdmissionDecision:
        """Gate *job*; on admit/degrade it enters the RDBMS immediately."""
        return self._gate(job, self._rdbms.submit)

    def resubmit(self, job: Job) -> AdmissionDecision:
        """Gate a retry attempt (same checks, lands in ``rdbms.resubmit``)."""
        return self._gate(job, self._rdbms.resubmit)

    def _gate(
        self, job: Job, enter: Callable[[Job], QueryRecord]
    ) -> AdmissionDecision:
        now = self._rdbms.clock
        qid = job.query_id
        decision = self._decide(job, now)
        if decision.admitted:
            if decision.outcome == "degrade":
                job.priority = DEMOTED_PRIORITY
                job.weight = weight_for_priority(DEMOTED_PRIORITY)
            enter(job)
            self._defer_counts.pop(qid, None)
        elif decision.outcome == "defer" and self._auto_retry:
            assert decision.retry_after is not None
            self._rdbms.add_event(
                decision.retry_after,
                lambda _r, j=job, e=enter: self._gate(j, e),
            )
        self._log(decision)
        return decision

    def _decide(self, job: Job, now: float) -> AdmissionDecision:
        qid = job.query_id
        policy = self.policy
        if self._rdbms.draining:
            return self._make(now, qid, "reject", "system is draining")
        floor = priority_floor(self._pressure)
        if floor is not None and job.priority < floor:
            return self._make(
                now, qid, "reject",
                f"overload pressure {self._pressure}: priority {job.priority} "
                f"below floor {floor}",
            )
        cost = job.estimated_remaining_cost()
        if not math.isfinite(cost) or cost < 0:
            return self._make(
                now, qid, "reject",
                f"non-finite cost estimate ({cost}); cannot budget",
            )
        live = [
            r for r in self._rdbms.records().values() if not r.terminal
        ]
        if (
            policy.max_in_flight is not None
            and len(live) >= policy.max_in_flight
        ):
            return self._defer(
                job, now,
                f"in-flight budget full ({len(live)}/{policy.max_in_flight})",
            )
        if policy.work_budget is not None:
            in_flight = sum(
                c for r in live
                if math.isfinite(c := r.job.estimated_remaining_cost())
            )
            if in_flight + cost > policy.work_budget + _EPS:
                return self._defer(
                    job, now,
                    f"work budget full ({in_flight:g} + {cost:g} U "
                    f"> {policy.work_budget:g} U)",
                )
        return self._feasibility_decision(job, live, now)

    # ------------------------------------------------------------------
    # PI-feasibility
    # ------------------------------------------------------------------

    def _feasibility_decision(
        self, job: Job, live: list[QueryRecord], now: float
    ) -> AdmissionDecision:
        qid = job.query_id
        snaps = []
        deadlines: dict[str, float] = {}
        for r in live:
            snaps.append(r.job.snapshot())
            if r.deadline_at is not None:
                deadlines[r.job.query_id] = r.deadline_at
        newcomer = job.snapshot()
        if job.deadline is not None:
            deadlines[qid] = now + job.deadline
        verdict = self._feasible(snaps + [newcomer], deadlines, now)
        if verdict is None:
            return self._make(
                now, qid, "admit",
                "budgets hold; projection unavailable (non-finite inputs)",
            )
        feasible, victim = verdict
        if feasible:
            return self._make(
                now, qid, "admit",
                "projection keeps every deadline feasible",
            )
        # The full-weight newcomer breaks a deadline.  A demoted admission
        # barely perturbs the incumbents; try that before deferring --
        # unless the newcomer has its own deadline (best-effort admission
        # of a deadline query just trades one miss for another).
        if self.policy.allow_degrade and job.deadline is None:
            demoted = replace(
                newcomer,
                priority=DEMOTED_PRIORITY,
                weight=weight_for_priority(DEMOTED_PRIORITY),
            )
            degraded_verdict = self._feasible(
                snaps + [demoted], deadlines, now
            )
            if degraded_verdict is not None and degraded_verdict[0]:
                return self._make(
                    now, qid, "degrade",
                    f"full weight would break {victim}'s deadline; "
                    f"admitted at priority {DEMOTED_PRIORITY}",
                )
        return self._defer(
            job, now, f"projection breaks {victim}'s deadline"
        )

    def _feasible(
        self,
        snaps: list,
        deadlines: dict[str, float],
        now: float,
    ) -> tuple[bool, str | None] | None:
        """``(feasible, first_victim)``; ``None`` when unprojectable."""
        if not deadlines:
            return True, None
        try:
            sched = IncrementalSchedule(
                self._rdbms.processing_rate, snaps
            )
        except (ValueError, KeyError):
            return None
        remaining = sched.remaining_times()
        for vid, deadline_at in sorted(deadlines.items()):
            rt = remaining.get(vid)
            if rt is None:
                continue
            if now + rt > deadline_at + _EPS:
                return False, vid
        return True, None

    # ------------------------------------------------------------------
    # Defer bookkeeping
    # ------------------------------------------------------------------

    def _defer(self, job: Job, now: float, why: str) -> AdmissionDecision:
        qid = job.query_id
        n = self._defer_counts.get(qid, 0)
        if n >= self.policy.max_defers:
            return self._make(
                now, qid, "reject",
                f"{why}; deferred {n} times already (cap "
                f"{self.policy.max_defers})",
            )
        self._defer_counts[qid] = n + 1
        retry_at = now + self._retry_gap()
        return self._make(
            now, qid, "defer",
            f"{why}; retry at t={retry_at:.3g}s",
            retry_after=retry_at,
        )

    def _retry_gap(self) -> float:
        """Virtual seconds until capacity plausibly frees up.

        The projection's next completion is the earliest instant the
        in-flight picture can improve; with nothing projectable, fall
        back to :data:`MIN_RETRY_DELAY`.
        """
        gap = MIN_RETRY_DELAY
        sched = self._rdbms.shared_schedule()
        if sched is not None:
            nxt = sched.next_finish()
            if nxt is not None and math.isfinite(nxt[0]) and nxt[0] > gap:
                gap = nxt[0]
        return gap

    def _make(
        self,
        now: float,
        qid: str,
        outcome: Outcome,
        reason: str,
        retry_after: float | None = None,
    ) -> AdmissionDecision:
        demoted = DEMOTED_PRIORITY if outcome == "degrade" else None
        return AdmissionDecision(
            time=now,
            query_id=qid,
            outcome=outcome,
            reason=reason,
            retry_after=retry_after,
            demoted_priority=demoted,
        )

    def _log(self, decision: AdmissionDecision) -> None:
        self.decisions.append(decision)
        self.outcomes[decision.query_id] = decision
        obs = self._rdbms.obs
        if obs is not None:
            obs.metrics.counter(f"qos.admission.{decision.outcome}").inc()
            obs.tracer.emit(
                f"qos.admission.{decision.outcome}",
                decision.time,
                decision.query_id,
                reason=decision.reason,
                retry_after=decision.retry_after,
            )
