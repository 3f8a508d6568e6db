"""Reproduction of "Multi-query SQL Progress Indicators" (EDBT 2006).

Public API re-exports the pieces a downstream user typically needs:

* progress indicators: :class:`MultiQueryProgressIndicator`,
  :class:`SingleQueryProgressIndicator`, :func:`standard_case`,
  :func:`project`, :class:`WorkloadForecast`, :class:`AdaptiveForecaster`;
* the simulated RDBMS: :class:`SimulatedRDBMS`, :class:`SyntheticJob`,
  :class:`EngineJob`;
* the SQL engine: :class:`Database`;
* workload management: :func:`choose_victim`, :func:`choose_victims`,
  :func:`choose_victim_for_all`, :func:`plan_maintenance`,
  :func:`exact_maintenance_plan`;
* resilience: :class:`FaultPlan` (with :class:`QueryCrash`,
  :class:`QueryStall`, :class:`Brownout`, :class:`StatsCorruption` and the
  node-scoped :class:`NodeCrash`, :class:`NetworkPartition`,
  :class:`NodeBrownout`), :class:`FaultInjector`, :class:`RetryPolicy`,
  :class:`RetryController`, :class:`RunawayQueryWatchdog`;
  work-preserving recovery: :class:`ExecutionCheckpoint`,
  :class:`CancellationToken`, :class:`MemoryGovernor`;
* the sharded cluster: :class:`ShardedCluster`, :class:`ShardNode`,
  :class:`ShardCatalog`, :class:`GlobalProgressAggregator`,
  :class:`ClusterFaultInjector`, :func:`load_tpcr`,
  :class:`ClusterWatchdog`, :func:`detect_stragglers`;
* observability: :class:`Observability`, :class:`AccuracyTracker`,
  :class:`MetricsRegistry`, :class:`Tracer`, :func:`observed`;
* overload protection (QoS): :class:`AdmissionController`,
  :class:`AdmissionPolicy`, :class:`CircuitBreaker`,
  :class:`DegradationLadder`, and the :class:`ArrivalBurst`
  (:data:`OverloadStorm`) fault shape.

See ``README.md`` for a tour, ``DESIGN.md`` for the system inventory,
``docs/RESILIENCE.md`` for the fault/recovery model,
``docs/SHARDING.md`` for the cluster simulation and
``docs/OBSERVABILITY.md`` for the tracing/metrics/accuracy layer.
"""

from repro.core.forecast import AdaptiveForecaster, WorkloadForecast
from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot, SystemSnapshot
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.projection import project
from repro.core.single_query import SingleQueryProgressIndicator
from repro.core.standard_case import standard_case
from repro.dist import (
    ClusterFaultInjector,
    GlobalProgressAggregator,
    ShardCatalog,
    ShardedCluster,
    ShardNode,
    load_tpcr,
)
from repro.engine import (
    CancellationToken,
    Database,
    ExecutionCheckpoint,
    MemoryBudgetExceeded,
    MemoryGovernor,
    QueryCancelled,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ArrivalBurst,
    Brownout,
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    OverloadStorm,
    QueryCrash,
    QueryStall,
    StatsCorruption,
    random_fault_plan,
)
from repro.faults.retry import RetryController, RetryPolicy
from repro.qos import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    BreakerConfig,
    CircuitBreaker,
    DegradationLadder,
    LadderConfig,
)
from repro.obs import (
    AccuracyTracker,
    MetricsRegistry,
    Observability,
    Tracer,
    observed,
)
from repro.sim.jobs import EngineJob, SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.maintenance import LostWorkCase, plan_maintenance
from repro.wm.multi_speedup import choose_victim_for_all
from repro.wm.oracle import exact_maintenance_plan
from repro.wm.cross_shard import ClusterWatchdog, detect_stragglers
from repro.wm.speedup import choose_victim, choose_victims
from repro.wm.watchdog import RunawayQueryWatchdog

__version__ = "1.0.0"

__all__ = [
    "AccuracyTracker",
    "AdaptiveForecaster",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "ArrivalBurst",
    "BreakerConfig",
    "Brownout",
    "CancellationToken",
    "CircuitBreaker",
    "ClusterFaultInjector",
    "ClusterWatchdog",
    "Database",
    "DegradationLadder",
    "EngineJob",
    "ExecutionCheckpoint",
    "FaultInjector",
    "FaultPlan",
    "GlobalProgressAggregator",
    "IncrementalSchedule",
    "LadderConfig",
    "LostWorkCase",
    "MemoryBudgetExceeded",
    "MemoryGovernor",
    "MetricsRegistry",
    "MultiQueryProgressIndicator",
    "NetworkPartition",
    "NodeBrownout",
    "NodeCrash",
    "Observability",
    "OverloadStorm",
    "QueryCancelled",
    "QueryCrash",
    "QuerySnapshot",
    "QueryStall",
    "RetryController",
    "RetryPolicy",
    "RunawayQueryWatchdog",
    "ShardCatalog",
    "ShardNode",
    "ShardedCluster",
    "SimulatedRDBMS",
    "SingleQueryProgressIndicator",
    "StatsCorruption",
    "SyntheticJob",
    "SystemSnapshot",
    "Tracer",
    "WorkloadForecast",
    "__version__",
    "choose_victim",
    "choose_victim_for_all",
    "choose_victims",
    "detect_stragglers",
    "exact_maintenance_plan",
    "load_tpcr",
    "observed",
    "plan_maintenance",
    "project",
    "random_fault_plan",
    "standard_case",
]
