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
* resilience: node-fault plans (:class:`FaultPlan` with
  :class:`NodeCrash`, :class:`NetworkPartition`, :class:`NodeBrownout`)
  and work-preserving recovery (:class:`ExecutionCheckpoint`);
* the sharded cluster: :class:`ShardedCluster`, :class:`ShardNode`,
  :class:`ShardCatalog`, :class:`GlobalProgressAggregator`,
  :class:`ClusterFaultInjector` (arms a fault plan; the router fails the
  victims over), :func:`load_tpcr`;
* observability: :class:`Observability`, :class:`AccuracyTracker`,
  :class:`MetricsRegistry`, :class:`Tracer`, :func:`observed`;
* overload protection (QoS): :class:`AdmissionController`,
  :class:`AdmissionPolicy`, :class:`CircuitBreaker`,
  :class:`DegradationLadder`.

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
from repro.engine import Database, ExecutionCheckpoint
from repro.faults.plan import (
    FaultPlan,
    NetworkPartition,
    NodeBrownout,
    NodeCrash,
    random_fault_plan,
)
from repro.qos import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
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
from repro.wm.speedup import choose_victim, choose_victims

__version__ = "1.0.0"

__all__ = [
    "AccuracyTracker",
    "AdaptiveForecaster",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "CircuitBreaker",
    "ClusterFaultInjector",
    "Database",
    "DegradationLadder",
    "EngineJob",
    "ExecutionCheckpoint",
    "FaultPlan",
    "GlobalProgressAggregator",
    "IncrementalSchedule",
    "LadderConfig",
    "LostWorkCase",
    "MetricsRegistry",
    "MultiQueryProgressIndicator",
    "NetworkPartition",
    "NodeBrownout",
    "NodeCrash",
    "Observability",
    "QuerySnapshot",
    "ShardCatalog",
    "ShardNode",
    "ShardedCluster",
    "SimulatedRDBMS",
    "SingleQueryProgressIndicator",
    "SyntheticJob",
    "SystemSnapshot",
    "Tracer",
    "WorkloadForecast",
    "__version__",
    "choose_victim",
    "choose_victim_for_all",
    "choose_victims",
    "exact_maintenance_plan",
    "load_tpcr",
    "observed",
    "plan_maintenance",
    "project",
    "random_fault_plan",
    "standard_case",
]
