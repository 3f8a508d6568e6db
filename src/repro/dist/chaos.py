"""Node-scoped fault injection against a sharded cluster.

:class:`ClusterFaultInjector` arms a :class:`~repro.faults.plan.FaultPlan`
-- :class:`~repro.faults.plan.NodeCrash`,
:class:`~repro.faults.plan.NetworkPartition` and
:class:`~repro.faults.plan.NodeBrownout` -- by scheduling virtual-time
events on the target node's own RDBMS:

* a **crash** kills the node (every sub-query on it fails at once, which
  the router observes and fails over) and marks it down in the catalog;
  with ``down_for`` set, a recovery event brings the node back later --
  empty, since its work has moved to replicas;
* a **partition** flips the catalog's reachability bit: the node keeps
  executing, but the router neither routes to it nor hears from it, so
  its shards' PI contributions go stale-but-finite until healing;
* a **brownout** scales the node's capacity for a window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.router import ShardedCluster
from repro.faults.plan import (
    FaultPlan,
    NetworkPartition,
    NodeCrash,
    NodeFault,
)


@dataclass(frozen=True)
class ClusterInjectionEvent:
    """One node fault as it actually fired."""

    time: float
    kind: str
    node_id: str
    description: str


class ClusterFaultInjector:
    """Arms node-scoped fault plans against a :class:`ShardedCluster`."""

    def __init__(self, cluster: ShardedCluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.log: list[ClusterInjectionEvent] = []
        self._armed = False

    def arm(self) -> None:
        """Schedule every fault in the plan (idempotence not supported)."""
        if self._armed:
            raise RuntimeError("plan already armed")
        for fault in self.plan.faults:
            if fault.node_id not in self.cluster.nodes:
                raise ValueError(
                    f"plan targets unknown node {fault.node_id!r}; cluster "
                    f"has {list(self.cluster.nodes)}"
                )
        self._armed = True
        for fault in self.plan.faults:
            self._arm_one(fault)

    def _record(self, time: float, kind: str, node_id: str, text: str) -> None:
        self.log.append(ClusterInjectionEvent(time, kind, node_id, text))
        obs = self.cluster._obs
        if obs is not None:
            obs.metrics.counter("dist.faults_injected").inc()
            obs.tracer.emit(f"fault.{kind}", time, None, node=node_id)

    def _arm_one(self, fault: NodeFault) -> None:
        cluster = self.cluster
        node = cluster.nodes[fault.node_id]
        rdbms = node.rdbms
        if isinstance(fault, NodeCrash):
            def crash(_r, f=fault) -> None:
                cluster.catalog.mark_down(f.node_id)
                victims = node.crash()
                self._record(
                    rdbms.clock, "node-crash", f.node_id,
                    f"crashed, {len(victims)} sub-queries failed",
                )
            rdbms.add_event(fault.at, crash)
            if fault.down_for is not None:
                def recover(_r, f=fault) -> None:
                    node.recover()
                    cluster.catalog.mark_up(f.node_id)
                    self._record(
                        rdbms.clock, "node-recover", f.node_id, "recovered"
                    )
                rdbms.add_event(fault.at + fault.down_for, recover)
        elif isinstance(fault, NetworkPartition):
            def cut(_r, f=fault) -> None:
                cluster.catalog.mark_unreachable(f.node_id)
                self._record(
                    rdbms.clock, "partition-start", f.node_id,
                    f"unreachable for {f.duration:g}s",
                )
            def heal(_r, f=fault) -> None:
                cluster.catalog.mark_reachable(f.node_id)
                self._record(rdbms.clock, "partition-heal", f.node_id, "healed")
            rdbms.add_event(fault.at, cut)
            rdbms.add_event(fault.at + fault.duration, heal)
        else:
            def dim(_r, f=fault) -> None:
                node.set_brownout(f.factor)
                self._record(
                    rdbms.clock, "node-brownout", f.node_id,
                    f"capacity x{f.factor:g} for {f.duration:g}s",
                )
            def restore(_r, f=fault) -> None:
                node.clear_brownout()
                self._record(
                    rdbms.clock, "node-brownout-end", f.node_id,
                    "capacity restored",
                )
            rdbms.add_event(fault.at, dim)
            rdbms.add_event(fault.at + fault.duration, restore)
