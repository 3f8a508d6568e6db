"""Apply a :class:`~repro.faults.plan.FaultPlan` to a simulated RDBMS.

The :class:`FaultInjector` is the bridge between declarative fault plans
and the simulator's resilience hooks: it wraps the RDBMS's speed model in a
:class:`~repro.sim.scheduler.ScaledSpeedModel` overlay, schedules the
begin/end edges of every timed fault as one-shot virtual-time events
(:meth:`~repro.sim.rdbms.SimulatedRDBMS.add_event`), and -- for
progress-fraction crash triggers -- registers a periodic monitor that fires
the crash once the target query's progress crosses the threshold (accurate
to one :data:`RESOLUTION` tick, like a real monitoring agent).

Every injection that actually engages or disengages is logged as an
:class:`InjectionEvent`, and query-targeted faults additionally land in the
query's trace (:meth:`~repro.sim.trace.QueryTrace.record_fault`), so a run's
full recovery timeline can be reconstructed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import (
    ArrivalBurst,
    Brownout,
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    QueryCrash,
    QueryStall,
    StatsCorruption,
)
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.sim.scheduler import ScaledSpeedModel


@dataclass(frozen=True)
class InjectionEvent:
    """One fault actually applied (or lifted) during a run.

    ``kind`` mirrors the fault shape with an edge suffix where relevant
    (``"brownout-begin"``, ``"stall-end"``, ``"crash"``,
    ``"corruption-begin"``, ...); ``query_id`` is ``None`` for system-wide
    faults; ``skipped`` marks injections that found their target already
    terminal and did nothing.
    """

    time: float
    kind: str
    query_id: str | None = None
    detail: str = ""
    skipped: bool = False


#: Check interval (virtual seconds) for progress-fraction crash triggers.
#: Timed faults are exact; fraction triggers fire within one tick of the
#: threshold crossing.
RESOLUTION = 0.25


class FaultInjector:
    """Arms a fault plan against a :class:`SimulatedRDBMS`.

    Parameters
    ----------
    rdbms:
        The simulator to inject into.
    plan:
        The declarative fault script.

    Call :meth:`arm` once before running the simulation.  Arming is
    idempotent per injector; use one injector per plan.
    """

    def __init__(self, rdbms: SimulatedRDBMS, plan: FaultPlan) -> None:
        self._rdbms = rdbms
        self._plan = plan
        self._armed = False
        #: Chronological log of injections applied during the run.
        self.events: list[InjectionEvent] = []
        self._pending_fraction_crashes: list[QueryCrash] = []
        self._active_brownouts: list[float] = []
        self._active_stalls: dict[str, int] = {}
        self._overlay: ScaledSpeedModel | None = None

    @property
    def plan(self) -> FaultPlan:
        """The fault plan this injector applies."""
        return self._plan

    @property
    def armed(self) -> bool:
        """Whether :meth:`arm` has been called."""
        return self._armed

    def arm(self) -> None:
        """Register every fault in the plan with the simulator."""
        if self._armed:
            raise RuntimeError("injector already armed")
        for fault in self._plan.faults:
            if isinstance(fault, (NodeCrash, NetworkPartition, NodeBrownout)):
                raise ValueError(
                    f"{type(fault).__name__} targets a cluster node; arm it "
                    "with repro.dist.ClusterFaultInjector against a "
                    "ShardedCluster, not with FaultInjector against one RDBMS"
                )
        self._armed = True
        overlay = self._rdbms.speed_model
        if not isinstance(overlay, ScaledSpeedModel):
            overlay = ScaledSpeedModel(overlay)
            self._rdbms.speed_model = overlay
        self._overlay = overlay

        for fault in self._plan.faults:
            if isinstance(fault, Brownout):
                self._arm_brownout(fault)
            elif isinstance(fault, QueryStall):
                self._arm_stall(fault)
            elif isinstance(fault, QueryCrash):
                self._arm_crash(fault)
            elif isinstance(fault, ArrivalBurst):
                self._arm_burst(fault)
            else:
                self._arm_corruption(fault)

        if self._pending_fraction_crashes:
            self._rdbms.add_sampler(RESOLUTION, self._check_fraction_crashes)

    def timeline(self) -> list[str]:
        """The injection log as formatted ``t=...`` lines, in time order."""
        lines = []
        for e in sorted(self.events, key=lambda e: e.time):
            who = f" {e.query_id}" if e.query_id else ""
            skip = " (skipped: target already terminal)" if e.skipped else ""
            detail = f" -- {e.detail}" if e.detail else ""
            lines.append(f"t={e.time:8.2f}s  {e.kind:<17}{who}{detail}{skip}")
        return lines

    # ------------------------------------------------------------------
    # Per-shape arming
    # ------------------------------------------------------------------

    def _log(
        self,
        kind: str,
        query_id: str | None = None,
        detail: str = "",
        skipped: bool = False,
    ) -> None:
        self.events.append(
            InjectionEvent(
                time=self._rdbms.clock,
                kind=kind,
                query_id=query_id,
                detail=detail,
                skipped=skipped,
            )
        )
        obs = self._rdbms.obs
        if obs is not None:
            obs.metrics.counter("faults.injected").inc()
            obs.tracer.emit(
                f"fault.{kind}",
                self._rdbms.clock,
                query_id,
                detail=detail,
                skipped=skipped,
            )

    def _arm_brownout(self, fault: Brownout) -> None:
        def begin(rdbms: SimulatedRDBMS) -> None:
            self._active_brownouts.append(fault.factor)
            self._apply_brownouts()
            self._log("brownout-begin", detail=f"capacity x{fault.factor:g}")

        def end(rdbms: SimulatedRDBMS) -> None:
            self._active_brownouts.remove(fault.factor)
            self._apply_brownouts()
            self._log("brownout-end", detail="capacity restored")

        self._rdbms.add_event(fault.start, begin)
        self._rdbms.add_event(fault.start + fault.duration, end)

    def _apply_brownouts(self) -> None:
        factor = 1.0
        for f in self._active_brownouts:
            factor *= f
        assert self._overlay is not None
        self._overlay.set_rate_factor(factor)

    def _arm_stall(self, fault: QueryStall) -> None:
        qid = fault.query_id

        def begin(rdbms: SimulatedRDBMS) -> None:
            record = self._record_or_none(qid)
            if record is None or record.terminal:
                self._log("stall-begin", qid, skipped=True)
                return
            self._active_stalls[qid] = self._active_stalls.get(qid, 0) + 1
            assert self._overlay is not None
            self._overlay.set_query_factor(qid, 0.0)
            record.trace.record_fault(
                rdbms.clock, "stall-begin", f"stalled for {fault.duration:g}s"
            )
            self._log("stall-begin", qid, detail=f"for {fault.duration:g}s")

        def end(rdbms: SimulatedRDBMS) -> None:
            if qid not in self._active_stalls:
                return
            self._active_stalls[qid] -= 1
            if self._active_stalls[qid] <= 0:
                del self._active_stalls[qid]
                assert self._overlay is not None
                self._overlay.clear_query_factor(qid)
            record = self._record_or_none(qid)
            if record is not None:
                record.trace.record_fault(rdbms.clock, "stall-end")
            self._log("stall-end", qid)

        self._rdbms.add_event(fault.at, begin)
        self._rdbms.add_event(fault.at + fault.duration, end)

    def _arm_crash(self, fault: QueryCrash) -> None:
        if fault.at_fraction is not None:
            self._pending_fraction_crashes.append(fault)
            return

        def crash(rdbms: SimulatedRDBMS) -> None:
            self._fire_crash(fault)

        assert fault.at_time is not None
        self._rdbms.add_event(fault.at_time, crash)

    def _fire_crash(self, fault: QueryCrash) -> None:
        record = self._record_or_none(fault.query_id)
        if record is None or record.terminal:
            self._log("crash", fault.query_id, skipped=True)
            return
        self._rdbms.fail(fault.query_id, fault.reason)
        self._log("crash", fault.query_id, detail=fault.reason)

    def _check_fraction_crashes(self, rdbms: SimulatedRDBMS) -> None:
        for fault in list(self._pending_fraction_crashes):
            record = self._record_or_none(fault.query_id)
            if record is None:
                continue  # not submitted yet; keep watching
            if record.terminal:
                self._pending_fraction_crashes.remove(fault)
                self._log("crash", fault.query_id, skipped=True)
                continue
            job = record.job
            done = job.completed_work
            total = done + max(job.estimated_remaining_cost(), 0.0)
            fraction = 1.0 if total <= 0 else done / total
            assert fault.at_fraction is not None
            if fraction + 1e-12 >= fault.at_fraction:
                self._pending_fraction_crashes.remove(fault)
                self._fire_crash(fault)

    def _arm_burst(self, fault: ArrivalBurst) -> None:
        if fault.sql is not None:
            raise ValueError(
                "ArrivalBurst with sql targets a cluster; arm it with "
                "repro.dist.ClusterFaultInjector, not FaultInjector"
            )

        def make_job(i: int, f: ArrivalBurst = fault) -> SyntheticJob:
            return SyntheticJob(
                f"{f.prefix}{i}", f.cost,
                priority=f.priority, deadline=f.deadline,
            )

        schedule = ArrivalSchedule()
        schedule.add_burst(
            fault.at, fault.n, make_job, spread=fault.spread, seed=fault.seed
        )
        self._rdbms.schedule(schedule)

        def begin(rdbms: SimulatedRDBMS) -> None:
            window = f" over {fault.spread:g}s" if fault.spread > 0 else ""
            self._log(
                "burst-begin",
                detail=f"{fault.n} x {fault.cost:g} U{window} "
                       f"({fault.prefix}*)",
            )

        self._rdbms.add_event(fault.at, begin)

    def _arm_corruption(self, fault: StatsCorruption) -> None:
        def begin(rdbms: SimulatedRDBMS) -> None:
            rdbms.corrupt_estimates(fault.factor, fault.query_id)
            record = (
                self._record_or_none(fault.query_id)
                if fault.query_id is not None
                else None
            )
            if record is not None:
                record.trace.record_fault(
                    rdbms.clock, "corruption-begin", f"estimates x{fault.factor:g}"
                )
            self._log(
                "corruption-begin", fault.query_id,
                detail=f"estimates x{fault.factor:g}",
            )

        self._rdbms.add_event(fault.start, begin)
        if fault.duration is not None:

            def end(rdbms: SimulatedRDBMS) -> None:
                rdbms.clear_estimate_corruption(fault.query_id)
                self._log("corruption-end", fault.query_id)

            self._rdbms.add_event(fault.start + fault.duration, end)

    def _record_or_none(self, query_id: str):
        try:
            return self._rdbms.record(query_id)
        except KeyError:
            return None
