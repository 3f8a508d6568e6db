"""Graceful-degradation ladder: shed load in rungs, not off a cliff.

When offered load exceeds capacity, a system without a plan degrades
*everything at once*: every PI refresh competes with useful work, every
deadline slips together, and goodput falls off a cliff.  The ladder
climbs through progressively more invasive interventions, driven by an
**overload score** that combines the two signals the paper's machinery
already maintains:

* **queue depth** -- admission-queue length relative to the
  multiprogramming limit (how far demand outruns slots);
* **projected remaining-work horizon** -- seconds until the system
  would be quiescent, straight from the shared
  :class:`~repro.core.incremental.IncrementalSchedule` (how far demand
  outruns capacity).

Rungs, in escalation order (each emits obs events and is individually
exercisable through its public method):

1. **coalesce** -- multiply registered PI-refresh samplers' cadence by
   ``refresh_factor``: progress reporting gets staler but cheaper, no
   query is touched;
2. **demote** -- drop low-priority queries to ``demote_priority`` (the
   paper's Section 3 priority action); sustained pressure then *parks*
   them via :meth:`~repro.sim.rdbms.SimulatedRDBMS.block`, each parked
   query's slot going to the head of the admission queue;
3. **shed** -- abort low-priority queries using *inverted* Section 3.1
   victim selection: where speedup picks the victim whose blocking buys
   the target the most, shedding kills the cheapest-to-kill,
   least-progressed queries first (minimum sunk work wasted, maximum
   capacity freed).

De-escalation retraces the rungs one at a time with hysteresis
(``clear_fraction`` + ``clear_ticks``): parked queries resume, demotions
stay (re-promoting mid-flight would thrash the schedule), and PI cadence
is restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.rdbms import SamplerHandle, SimulatedRDBMS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.qos.admission import AdmissionController

#: Rung indices to names, escalation order.
RUNGS = ("normal", "coalesce", "demote", "shed")


@dataclass(frozen=True)
class LadderConfig:
    """Thresholds and knobs for a :class:`DegradationLadder`.

    Attributes
    ----------
    coalesce_at, demote_at, shed_at:
        Overload-score thresholds for entering rungs 1..3; must be
        strictly increasing.
    clear_fraction:
        Hysteresis: a rung clears only when the score drops below
        ``threshold * clear_fraction``.
    clear_ticks:
        Consecutive below-threshold checks required before stepping down
        one rung (prevents oscillation on a noisy score).
    horizon_target:
        Seconds of projected remaining work considered "full capacity";
        the horizon term of the score is ``horizon / horizon_target``.
    refresh_factor:
        PI-refresh cadence multiplier applied at rung >= 1.
    demote_priority:
        Priority assigned to demoted queries at rung >= 2.
    low_priority_ceiling:
        Queries with priority <= this are eligible for demotion, parking
        and shedding; higher-priority queries are never touched.
    max_shed_per_step:
        Aborts per check at rung 3 (shed gradually, re-score, repeat).
    """

    coalesce_at: float = 1.5
    demote_at: float = 3.0
    shed_at: float = 6.0
    clear_fraction: float = 0.75
    clear_ticks: int = 2
    horizon_target: float = 30.0
    refresh_factor: float = 4.0
    demote_priority: int = -2
    low_priority_ceiling: int = 0
    max_shed_per_step: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.coalesce_at < self.demote_at < self.shed_at:
            raise ValueError(
                "thresholds must satisfy 0 < coalesce_at < demote_at < shed_at, "
                f"got {self.coalesce_at}, {self.demote_at}, {self.shed_at}"
            )
        if not 0.0 < self.clear_fraction <= 1.0:
            raise ValueError(
                f"clear_fraction must be in (0, 1], got {self.clear_fraction}"
            )
        if self.clear_ticks < 1:
            raise ValueError(f"clear_ticks must be >= 1, got {self.clear_ticks}")
        if not math.isfinite(self.horizon_target) or self.horizon_target <= 0:
            raise ValueError(
                f"horizon_target must be finite and > 0, got {self.horizon_target}"
            )
        if self.refresh_factor < 1.0:
            raise ValueError(
                f"refresh_factor must be >= 1, got {self.refresh_factor}"
            )
        if self.max_shed_per_step < 1:
            raise ValueError(
                f"max_shed_per_step must be >= 1, got {self.max_shed_per_step}"
            )

    def threshold(self, rung: int) -> float:
        """Entry threshold of *rung* (1..3)."""
        return (self.coalesce_at, self.demote_at, self.shed_at)[rung - 1]


@dataclass(frozen=True)
class LadderEvent:
    """One ladder action, for audit logs and tests."""

    time: float
    rung: int
    action: str
    detail: str


class DegradationLadder:
    """Climbs and descends the degradation rungs on a periodic check.

    Parameters
    ----------
    rdbms:
        The simulator to protect.
    config:
        Thresholds and knobs; see :class:`LadderConfig`.
    admission:
        Optional admission controller to inform of the current rung
        (its pressure floors tighten as the ladder climbs).
    check_interval:
        Seconds between overload checks once :meth:`attach` is called.
    """

    def __init__(
        self,
        rdbms: SimulatedRDBMS,
        config: LadderConfig | None = None,
        admission: "AdmissionController | None" = None,
        check_interval: float = 1.0,
    ) -> None:
        if check_interval <= 0:
            raise ValueError(f"check_interval must be > 0, got {check_interval}")
        self._rdbms = rdbms
        self.config = config if config is not None else LadderConfig()
        self._admission = admission
        self._check_interval = check_interval
        self._rung = 0
        self._calm_ticks = 0
        self._demote_ticks = 0
        self._attached = False
        self._pi_samplers: list[SamplerHandle] = []
        self._demoted: set[str] = set()
        self._parked: set[str] = set()
        #: Chronological log of every rung transition and action.
        self.events: list[LadderEvent] = []
        #: Query ids shed (aborted) by rung 3, in shed order.
        self.shed_ids: list[str] = []

    @property
    def rung(self) -> int:
        """Current rung index (0 = normal operation)."""
        return self._rung

    @property
    def rung_name(self) -> str:
        """Current rung name (``"normal"`` .. ``"shed"``)."""
        return RUNGS[self._rung]

    @property
    def parked(self) -> tuple[str, ...]:
        """Ids of queries currently parked (blocked) by the ladder."""
        return tuple(sorted(self._parked))

    def attach(self) -> "DegradationLadder":
        """Arm the periodic overload check."""
        if self._attached:
            raise RuntimeError("ladder already attached")
        self._attached = True
        self._rdbms.add_sampler(self._check_interval, self._on_tick)
        return self

    def register_pi_sampler(self, handle: SamplerHandle) -> None:
        """Declare *handle* a PI-refresh sampler rung 1 may coalesce."""
        self._pi_samplers.append(handle)
        if self._rung >= 1:
            handle.set_interval(
                handle.base_interval * self.config.refresh_factor
            )

    # ------------------------------------------------------------------
    # The overload score
    # ------------------------------------------------------------------

    def overload_score(self) -> float:
        """Queue-depth term plus projected remaining-work-horizon term.

        Score 1.0 roughly means "exactly at capacity": either the queue
        holds one full multiprogramming round, or the projected horizon
        equals ``horizon_target``.
        """
        rdbms = self._rdbms
        slots = rdbms.multiprogramming_limit
        if slots is None:
            slots = max(len(rdbms.running), 1)
        queue_term = len(rdbms.queued) / slots
        horizon = self._projected_horizon()
        return queue_term + horizon / self.config.horizon_target

    def _projected_horizon(self) -> float:
        """Seconds until quiescence: running (projected) plus queued work."""
        rdbms = self._rdbms
        rate = rdbms.processing_rate
        sched = rdbms.shared_schedule()
        if sched is not None:
            horizon = sched.quiescent_time()
        else:
            work = sum(
                c for j in rdbms.running
                if math.isfinite(c := j.estimated_remaining_cost())
            )
            horizon = work / rate
        queued_work = sum(
            c for j in rdbms.queued
            if math.isfinite(c := j.estimated_remaining_cost())
        )
        return horizon + queued_work / rate

    # ------------------------------------------------------------------
    # Escalation control
    # ------------------------------------------------------------------

    def _target_rung(self, score: float) -> int:
        target = 0
        for rung in (1, 2, 3):
            if score >= self.config.threshold(rung):
                target = rung
        return target

    def _on_tick(self, rdbms: SimulatedRDBMS) -> None:
        score = self.overload_score()
        target = self._target_rung(score)
        if target > self._rung:
            # Escalate one rung per check: gentler interventions get a
            # chance to work before harsher ones engage.
            self._escalate(score)
        elif self._clears_current(score):
            self._calm_ticks += 1
            if self._calm_ticks >= self.config.clear_ticks:
                self._descend(score)
        else:
            self._calm_ticks = 0
        # Rung maintenance: actions that repeat while a rung holds.
        if self._rung >= 2:
            self.demote_low_priority()
            self._demote_ticks += 1
            if self._demote_ticks >= 2:
                self.park_low_priority()
        else:
            self._demote_ticks = 0
        if self._rung >= 3:
            self.shed(self.config.max_shed_per_step)

    def _clears_current(self, score: float) -> bool:
        if self._rung == 0:
            return False
        limit = self.config.threshold(self._rung) * self.config.clear_fraction
        return score < limit

    def _escalate(self, score: float) -> None:
        self._rung += 1
        self._calm_ticks = 0
        self._note("enter", f"score {score:.2f}")
        if self._rung == 1:
            self.apply_coalesce()
        if self._admission is not None:
            self._admission.set_pressure(self._rung)

    def _descend(self, score: float) -> None:
        leaving = self._rung
        self._rung -= 1
        self._calm_ticks = 0
        self._note("exit", f"score {score:.2f}, leaving {RUNGS[leaving]}")
        if leaving == 2:
            self.release_parked()
        if leaving == 1:
            self.restore_cadence()
        if self._admission is not None:
            self._admission.set_pressure(self._rung)

    # ------------------------------------------------------------------
    # Rung actions (public: each is individually testable)
    # ------------------------------------------------------------------

    def apply_coalesce(self) -> None:
        """Rung 1: multiply registered PI-refresh cadences."""
        for handle in self._pi_samplers:
            handle.set_interval(
                handle.base_interval * self.config.refresh_factor
            )
        self._note(
            "coalesce",
            f"{len(self._pi_samplers)} PI samplers x{self.config.refresh_factor:g}",
        )

    def restore_cadence(self) -> None:
        """Undo rung 1: PI-refresh samplers back to their base cadence."""
        for handle in self._pi_samplers:
            handle.set_interval(handle.base_interval)
        self._note("restore-cadence", f"{len(self._pi_samplers)} PI samplers")

    def _low_priority_running(self) -> list:
        ceiling = self.config.low_priority_ceiling
        return [
            j for j in self._rdbms.running
            if j.priority <= ceiling
            and not j.query_id.startswith("__rollback_")
        ]

    def demote_low_priority(self) -> tuple[str, ...]:
        """Rung 2: drop low-priority running queries to demote_priority."""
        acted = []
        for job in self._low_priority_running():
            qid = job.query_id
            if qid in self._demoted or job.priority <= self.config.demote_priority:
                continue
            self._rdbms.set_priority(qid, self.config.demote_priority)
            self._demoted.add(qid)
            acted.append(qid)
            self._note("demote", qid)
        return tuple(acted)

    def park_low_priority(self) -> tuple[str, ...]:
        """Rung 2 sustained: block low-priority queries, freeing capacity.

        Each parked query frees its slot for the head of the admission
        queue (``admit_replacement=True``), so the node never sits with
        queued work and nothing running.
        """
        acted = []
        for job in self._low_priority_running():
            qid = job.query_id
            self._rdbms.block(qid, admit_replacement=True)
            self._parked.add(qid)
            acted.append(qid)
            self._note("park", qid)
        return tuple(acted)

    def release_parked(self) -> tuple[str, ...]:
        """Resume every query the ladder parked (on leaving rung 2)."""
        released = []
        for qid in sorted(self._parked):
            record = self._rdbms.record(qid)
            if record.status == "blocked":
                self._rdbms.unblock(qid)
                released.append(qid)
                self._note("release", qid)
        self._parked.clear()
        return tuple(released)

    def shed_candidates(self) -> list[str]:
        """Live low-priority queries, cheapest-to-kill first.

        Inverted Section 3.1: where speedup's victim selection blocks
        the query whose removal buys a target the most, shedding kills
        the queries with the least sunk work (cheapest to waste) and,
        among those, the most remaining work (frees the most capacity).
        """
        ceiling = self.config.low_priority_ceiling
        candidates = []
        for record in self._rdbms.records().values():
            job = record.job
            if (
                record.terminal
                or job.priority > ceiling
                or job.query_id.startswith("__rollback_")
                or job.query_id in self._parked
            ):
                continue
            remaining = job.estimated_remaining_cost()
            if not math.isfinite(remaining):
                remaining = math.inf
            candidates.append((job.completed_work, -remaining, job.query_id))
        candidates.sort()
        return [qid for _, _, qid in candidates]

    def shed(self, limit: int | None = None) -> tuple[str, ...]:
        """Rung 3: abort up to *limit* cheapest-to-kill queries."""
        limit = self.config.max_shed_per_step if limit is None else limit
        acted = []
        for qid in self.shed_candidates()[:limit]:
            self._rdbms.abort(qid, reason="load-shed (ladder rung 3)")
            self.shed_ids.append(qid)
            acted.append(qid)
            self._note("shed", qid)
        return tuple(acted)

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _note(self, action: str, detail: str) -> None:
        now = self._rdbms.clock
        self.events.append(LadderEvent(now, self._rung, action, detail))
        obs = self._rdbms.obs
        if obs is not None:
            obs.metrics.counter(f"qos.ladder.{action}").inc()
            obs.metrics.gauge("qos.ladder.rung").set(self._rung)
            obs.tracer.emit(
                f"qos.ladder.{action}", now, None,
                rung=self._rung, rung_name=RUNGS[self._rung], detail=detail,
            )
