"""Node fault plans and failover backoff for the sharded cluster.

* :mod:`repro.faults.plan` -- declarative, virtual-time node-fault plans
  (node crash, network partition, node brownout -- armed via
  :class:`repro.dist.ClusterFaultInjector`) and a seeded random-plan
  generator for chaos tests.
* :mod:`repro.faults.retry` -- the router's sub-query retry backoff: an
  attempts cap, doubling delays in virtual time and deterministic jitter,
  all fixed (see DESIGN.md's "Fixed settings").

Recovery itself is the router's failover onto a replica, resumed from
the crashed attempt's last checkpoint.  See ``docs/RESILIENCE.md`` for
the full model.
"""

from repro.faults.plan import (
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    random_fault_plan,
)

__all__ = [
    "FaultPlan",
    "NetworkPartition",
    "NodeBrownout",
    "NodeCrash",
    "random_fault_plan",
]
