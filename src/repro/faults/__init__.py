"""Fault injection and resilience for the simulated RDBMS (chaos layer).

The paper's central robustness claim (Sections 2.4, 4, 5.2.3) is that
multi-query progress indicators stay useful *because they adapt when
forecasts go wrong*.  This package makes that claim testable by letting
whole classes of failure be scripted against a run:

* :mod:`repro.faults.plan` -- declarative, virtual-time fault plans:
  query crashes (timed or at a progress fraction), transient stalls,
  system-wide capacity brownouts, and corrupted cost statistics
  (multiplicative noise, NaN, inf), plus node-scoped faults for sharded
  clusters (node crash, network partition, node brownout -- armed via
  :class:`repro.dist.ClusterFaultInjector`) and a seeded random-plan
  generator for chaos tests.
* :mod:`repro.faults.injector` -- applies a plan to a
  :class:`~repro.sim.rdbms.SimulatedRDBMS` through its event-hook API and
  logs every injection.
* :mod:`repro.faults.retry` -- resubmits failed queries under a
  :class:`RetryPolicy` (its attempts cap and base delay are the settings;
  the doubling backoff in virtual time and the deterministic jitter are
  fixed, see DESIGN.md's "Fixed settings").

The workload-management side of resilience -- the runaway-query watchdog
with its observed-work fallback -- lives in :mod:`repro.wm.watchdog`.
See ``docs/RESILIENCE.md`` for the full model.
"""

from repro.faults.injector import FaultInjector, InjectionEvent
from repro.faults.plan import (
    Brownout,
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    QueryCrash,
    QueryStall,
    StatsCorruption,
    random_fault_plan,
)
from repro.faults.retry import RetryController, RetryEvent, RetryPolicy

__all__ = [
    "Brownout",
    "FaultInjector",
    "FaultPlan",
    "InjectionEvent",
    "NetworkPartition",
    "NodeBrownout",
    "NodeCrash",
    "QueryCrash",
    "QueryStall",
    "RetryController",
    "RetryEvent",
    "RetryPolicy",
    "StatsCorruption",
    "random_fault_plan",
]
