"""Runaway-query watchdog: deprioritize, then abort, queries over budget.

A workload manager armed with a multi-query PI can police runaway queries
*predictively*: a query is an offender when its elapsed time plus its
PI-estimated remaining time exceeds the budget -- long before it has
actually burned the whole budget.  That is the PI-driven half of this
module.

The resilience half is the fallback: under corrupted statistics the PI
(correctly) refuses to estimate -- :mod:`repro.core.validation` makes it
raise on NaN/inf inputs -- or produces a non-finite number.  The watchdog
must keep functioning anyway, and it degrades *per query*, not per tick:
before each estimate, the watchdog substitutes each corrupt query's last
finite remaining-cost observation (carried back from an earlier tick,
:func:`~repro.core.validation.carry_back`), so queries with healthy
statistics keep their predictive enforcement.  Only queries that never
reported a finite cost are dropped from the estimate; those (and only
those) fall to the *observed-work heuristic* -- offender once the time
observably consumed exceeds the budget.  Cruder (it can only react, not predict), but it
needs nothing beyond the simulator clock.  Actions justified by a
carried-back or absent estimate are flagged ``used_fallback`` so every
degraded decision is auditable.

Escalation is two-step, as in production systems: a first offense demotes
the query's priority (it keeps running, slowly, and stops hurting everyone
else); a repeat offense at a later check aborts it.  Aborts land in the
trace as ``aborted_at`` -- a deliberate workload-management action, distinct
from ``failed_at`` runtime errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.validation import carry_back
from repro.sim.rdbms import SimulatedRDBMS


@dataclass(frozen=True)
class WatchdogAction:
    """One enforcement action taken by the watchdog."""

    time: float
    query_id: str
    #: ``"deprioritize"`` or ``"abort"``.
    action: str
    #: The PI's remaining-time estimate at decision time, if one was usable.
    estimated_remaining: float | None
    #: Whether the decision used the observed-work fallback (PI estimate
    #: unavailable or non-finite) instead of the PI.
    used_fallback: bool
    reason: str


class RunawayQueryWatchdog:
    """Polices running queries against a wall-clock budget.

    Parameters
    ----------
    rdbms:
        The simulator to police.
    budget_seconds:
        Per-query budget, in virtual seconds since the query first started
        running, or ``None`` to skip budget enforcement.  Time lost to
        failures, stalls and retries counts -- the budget is what an
        operator would set on total occupancy.
    check_interval:
        How often (virtual seconds) the watchdog wakes up.
    pi:
        The progress indicator used for predictive enforcement; defaults
        to a fresh :class:`MultiQueryProgressIndicator`.
    demote_priority:
        Priority assigned on the first offense (low priorities mean small
        scheduling weights).
    enforce_deadlines:
        Also treat a *predicted* deadline miss as an offense: a running
        query whose PI-estimated finish time exceeds its
        :attr:`~repro.sim.rdbms.QueryRecord.deadline_at` is demoted, then
        aborted -- well before the RDBMS's hard deadline enforcement
        would kill it at expiry.  Purely predictive: with no usable PI
        estimate the hard enforcement remains the only backstop.

    Call :meth:`attach` once before running the simulation.
    """

    def __init__(
        self,
        rdbms: SimulatedRDBMS,
        budget_seconds: float | None = None,
        check_interval: float = 1.0,
        pi: MultiQueryProgressIndicator | None = None,
        demote_priority: int = -2,
        enforce_deadlines: bool = False,
    ) -> None:
        if budget_seconds is not None and (
            not math.isfinite(budget_seconds) or budget_seconds <= 0
        ):
            raise ValueError(
                f"budget_seconds must be finite and > 0, got {budget_seconds}"
            )
        if budget_seconds is None and not enforce_deadlines:
            raise ValueError(
                "watchdog needs a budget_seconds and/or enforce_deadlines=True"
            )
        if check_interval <= 0:
            raise ValueError(f"check_interval must be > 0, got {check_interval}")
        self._rdbms = rdbms
        self._budget = budget_seconds
        self._check_interval = check_interval
        self._pi = pi if pi is not None else MultiQueryProgressIndicator()
        self._demote_priority = demote_priority
        self._enforce_deadlines = enforce_deadlines
        self._demoted: set[str] = set()
        self._attached = False
        #: Last finite remaining-cost observed per live query, for
        #: carry-back when a later snapshot turns non-finite.
        self._last_finite: dict[str, float] = {}
        #: Chronological log of enforcement actions.
        self.actions: list[WatchdogAction] = []

    @property
    def budget_seconds(self) -> float | None:
        """The per-query occupancy budget being enforced, if any."""
        return self._budget

    @property
    def demoted(self) -> tuple[str, ...]:
        """Ids of queries demoted so far, in action order."""
        return tuple(a.query_id for a in self.actions if a.action == "deprioritize")

    @property
    def aborted(self) -> tuple[str, ...]:
        """Ids of queries aborted so far, in action order."""
        return tuple(a.query_id for a in self.actions if a.action == "abort")

    @property
    def fallback_engaged(self) -> bool:
        """Whether any action so far used the observed-work fallback."""
        return any(a.used_fallback for a in self.actions)

    def attach(self) -> None:
        """Arm the watchdog: register its periodic check with the RDBMS."""
        if self._attached:
            raise RuntimeError("watchdog already attached")
        self._attached = True
        self._rdbms.add_sampler(self._check_interval, self._on_tick)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------

    def _estimates(self) -> tuple[dict[str, float] | None, frozenset[str]]:
        """PI estimates plus the ids whose inputs had to be carried back.

        Returns ``(remaining_times, degraded_ids)``.  The estimator runs
        once, on the snapshot after
        :func:`~repro.core.validation.carry_back`: corrupt queries
        (non-finite remaining cost) get their last finite observation
        substituted; queries with no finite history are dropped (they
        individually fall back to observed work).  Healthy queries keep
        real predictive estimates either way.  ``(None, ...)`` -- the
        whole-tick fallback -- only remains for snapshots the PI rejects
        even after carry-back.
        """
        snapshot = self._rdbms.snapshot()
        kept, carried = carry_back(
            snapshot.running + snapshot.queued, self._last_finite
        )
        running_ids = {s.query_id for s in snapshot.running}
        snapshot = replace(
            snapshot,
            running=tuple(s for s in kept if s.query_id in running_ids),
            queued=tuple(s for s in kept if s.query_id not in running_ids),
        )
        try:
            estimate = self._pi.estimate(snapshot)
        except ValueError:
            # Still unusable (e.g. corrupt completed-work counters too):
            # the whole tick falls back to observed work.
            return None, frozenset(carried)
        return estimate.remaining_seconds, frozenset(carried)

    def _on_tick(self, rdbms: SimulatedRDBMS) -> None:
        estimates, degraded = self._estimates()
        now = rdbms.clock
        for job in rdbms.running:
            qid = job.query_id
            record = rdbms.record(qid)
            started = record.trace.started_at
            if started is None:  # pragma: no cover - running implies started
                continue
            elapsed = now - started
            est: float | None = None
            if estimates is not None:
                est = estimates.get(qid)
                if est is not None and not math.isfinite(est):
                    est = None
            over = False
            used_fallback = False
            reason = ""
            if self._budget is not None:
                if est is not None:
                    over = elapsed + est > self._budget
                    used_fallback = qid in degraded
                    stale = " (carried-back)" if used_fallback else ""
                    reason = (
                        f"elapsed {elapsed:.1f}s + estimated{stale} "
                        f"{est:.1f}s > budget {self._budget:g}s"
                    )
                else:
                    # Observed-work heuristic: no usable estimate, so
                    # enforce only on the time the query has consumed.
                    over = elapsed > self._budget
                    used_fallback = True
                    reason = (
                        f"no usable estimate; observed {elapsed:.1f}s "
                        f"> budget {self._budget:g}s"
                    )
            if (
                not over
                and self._enforce_deadlines
                and record.deadline_at is not None
                and est is not None
                and now + est > record.deadline_at
            ):
                # Predicted deadline miss: act now rather than letting the
                # RDBMS kill the query at expiry with nothing to show.
                over = True
                used_fallback = qid in degraded
                reason = (
                    f"predicted finish at {now + est:.1f}s "
                    f"> deadline {record.deadline_at:g}s"
                )
            if not over:
                continue
            if qid not in self._demoted:
                rdbms.set_priority(qid, self._demote_priority)
                self._demoted.add(qid)
                record.trace.record_fault(now, "watchdog-demote", reason)
                self._record(now, qid, "deprioritize", est, used_fallback, reason)
            else:
                rdbms.abort(qid)
                record.trace.record_fault(now, "watchdog-abort", reason)
                self._record(now, qid, "abort", est, used_fallback, reason)

    def _record(
        self,
        time: float,
        query_id: str,
        action: str,
        est: float | None,
        used_fallback: bool,
        reason: str,
    ) -> None:
        self.actions.append(
            WatchdogAction(
                time=time,
                query_id=query_id,
                action=action,
                estimated_remaining=est,
                used_fallback=used_fallback,
                reason=reason,
            )
        )
        obs = self._rdbms.obs
        if obs is not None:
            # The decision plus the snapshot that justified it, so a trace
            # reader can audit every enforcement after the fact.
            obs.metrics.counter(f"watchdog.{action}").inc()
            obs.tracer.emit(
                f"watchdog.{action}",
                time,
                query_id,
                estimated_remaining=est,
                used_fallback=used_fallback,
                budget=self._budget,
                reason=reason,
            )
