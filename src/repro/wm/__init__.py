"""Workload management built on multi-query progress indicators (Section 3).

Three problems from the paper, each solved with the information a
multi-query PI provides:

* :mod:`repro.wm.speedup` -- the **single-query speed-up problem**
  (Section 3.1): choose ``h`` victim queries to block so that a target
  query's remaining time shrinks the most.
* :mod:`repro.wm.multi_speedup` -- the **multiple-query speed-up problem**
  (Section 3.2): choose one victim to minimise the total response time of
  all other queries.
* :mod:`repro.wm.maintenance` -- the **scheduled maintenance problem**
  (Section 3.3): choose queries to abort so the system is quiescent by the
  maintenance deadline with minimal lost work (greedy knapsack), plus
  :mod:`repro.wm.oracle` computing the exact optimum ("theoretical
  limitation" line of paper Figure 11).
* :mod:`repro.wm.policies` -- executable policies (no-PI / single-query-PI /
  multi-query-PI) that drive a :class:`~repro.sim.rdbms.SimulatedRDBMS`
  through operations O1 / O2 / O2' / O3.
* :mod:`repro.wm.watchdog` -- the runaway-query watchdog: PI-predicted
  budget enforcement (deprioritize, then abort) with per-query stale
  carry-back under partially corrupted snapshots and an observed-work
  fallback when no usable estimate exists at all.
* :mod:`repro.wm.cross_shard` -- cluster-level workload management:
  straggler detection from the global PI's per-shard contributions, and
  Section 3.1 victim selection applied on the straggler's own node.
"""

from repro.wm.cross_shard import (
    ClusterWatchdog,
    ClusterWatchdogAction,
    Straggler,
    choose_cross_shard_victim,
    detect_stragglers,
)
from repro.wm.maintenance import (
    LostWorkCase,
    MaintenancePlan,
    plan_maintenance,
    quiescent_time,
)
from repro.wm.manager import AdaptiveMaintenanceManager, run_adaptive_maintenance
from repro.wm.multi_speedup import MultiSpeedupChoice, choose_victim_for_all
from repro.wm.oracle import exact_maintenance_plan
from repro.wm.overhead import (
    exact_plan_with_overhead,
    proportional_overhead,
)
from repro.wm.policies import (
    decide_multi_pi,
    decide_no_pi,
    decide_single_pi,
    execute_policy,
)
from repro.wm.speedup import (
    SpeedupChoice,
    choose_victim,
    choose_victim_equal_priority,
    choose_victims,
)
from repro.wm.watchdog import RunawayQueryWatchdog, WatchdogAction

__all__ = [
    "AdaptiveMaintenanceManager",
    "ClusterWatchdog",
    "ClusterWatchdogAction",
    "LostWorkCase",
    "Straggler",
    "MaintenancePlan",
    "MultiSpeedupChoice",
    "RunawayQueryWatchdog",
    "SpeedupChoice",
    "WatchdogAction",
    "choose_cross_shard_victim",
    "choose_victim",
    "choose_victim_equal_priority",
    "choose_victim_for_all",
    "choose_victims",
    "decide_multi_pi",
    "decide_no_pi",
    "decide_single_pi",
    "detect_stragglers",
    "exact_maintenance_plan",
    "exact_plan_with_overhead",
    "execute_policy",
    "plan_maintenance",
    "proportional_overhead",
    "quiescent_time",
    "run_adaptive_maintenance",
]
