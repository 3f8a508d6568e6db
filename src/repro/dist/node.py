"""One simulated cluster node: its own engine database and RDBMS.

A :class:`ShardNode` is a full single-node stack -- an engine
:class:`~repro.engine.database.Database` holding the table fragments
placed on the node, timeshared by the node's own
:class:`~repro.sim.rdbms.SimulatedRDBMS` -- plus the health state and
degradation hooks the cluster's fault layer scripts against:

* :meth:`crash` kills the node: every in-flight sub-query fails at once
  (firing the RDBMS ``on_failure`` hooks, which is how the router
  notices and starts failover) and the node stops accepting work.
* :meth:`recover` brings it back, empty-handed: crashed sub-queries do
  not resume here -- the router has already moved them to a replica.
* :meth:`set_brownout` scales the node's capacity through a
  :class:`~repro.sim.scheduler.ScaledSpeedModel` overlay.

Reachability (network partitions) is deliberately *not* state on the
node: a partitioned node keeps executing -- that is what distinguishes
a partition from a crash -- while the catalog marks it unreachable so
the router stops routing to it and its PI reports go stale.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.sim.rdbms import QueryRecord, SimulatedRDBMS
from repro.sim.jobs import Job
from repro.sim.scheduler import ScaledSpeedModel

#: A node's scheduling quantum, virtual seconds, which is also the
#: cluster's epoch length: every node's clock moves in slices of this size.
TICK = 0.25


class ShardNode:
    """A cluster member: engine database + simulated RDBMS + health."""

    def __init__(self, node_id: str, processing_rate: float = 1.0) -> None:
        if not node_id:
            raise ValueError("node_id must not be empty")
        self.node_id = node_id
        self.db = Database()
        self.rdbms = SimulatedRDBMS(
            processing_rate=processing_rate, quantum=TICK
        )
        # Wrap the speed model once, up front, so brownouts can be applied
        # and lifted at any time without swapping models mid-run.
        self._speed = ScaledSpeedModel(self.rdbms.speed_model)
        self.rdbms.speed_model = self._speed
        self.up = True

    @property
    def clock(self) -> float:
        """The node's virtual time (cluster lockstep keeps nodes equal)."""
        return self.rdbms.clock

    @property
    def brownout_factor(self) -> float:
        """Current capacity factor (1.0 = nominal, 0.0 = full outage)."""
        return self._speed.rate_factor

    def set_brownout(self, factor: float) -> None:
        """Scale the node's total capacity by *factor*."""
        self._speed.set_rate_factor(factor)

    def clear_brownout(self) -> None:
        """Restore nominal capacity."""
        self._speed.set_rate_factor(1.0)

    def submit(self, job: Job) -> QueryRecord:
        """Run *job* on this node (rejected while the node is down)."""
        if not self.up:
            raise RuntimeError(f"node {self.node_id} is down")
        return self.rdbms.submit(job)

    def crash(self) -> tuple[str, ...]:
        """Kill the node; every live sub-query fails.  Returns their ids."""
        if not self.up:
            return ()
        self.up = False
        return self.rdbms.fail_everything(f"node {self.node_id} crashed")

    def recover(self) -> None:
        """Bring a crashed node back (empty: failed work moved elsewhere)."""
        self.up = True

    def run_until(self, target: float) -> None:
        """Advance the node's clock to *target* (skips time while down).

        A down node's clock still moves -- virtual time is global -- but
        nothing executes: there are no live jobs (the crash failed them
        all) and new submissions are rejected until :meth:`recover`.
        """
        self.rdbms.run_until(target)

    def quiescent(self) -> bool:
        """True when the node has no runnable or pending work."""
        return self.rdbms.quiescent()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return (
            f"<ShardNode {self.node_id} {state} "
            f"t={self.clock:.2f} running={len(self.rdbms.running)}>"
        )
