"""Sharded multi-node simulation with fault-tolerant global progress.

This package scales the single-system simulation out to a cluster:

* :mod:`repro.dist.partition` -- block / hash / range partitioners;
* :mod:`repro.dist.catalog` -- the metadata service: tables -> shards ->
  replica nodes, plus node health (up / reachable);
* :mod:`repro.dist.node` -- one cluster member: its own engine database
  and simulated RDBMS, with crash / recover / brownout hooks;
* :mod:`repro.dist.router` -- :class:`ShardedCluster`: scatter-gather
  distributed queries (pushdown or gather-merge strategies, both
  byte-identical to single-node execution), epoch-lockstep virtual
  time, and checkpoint-restoring replica failover with
  work-conservation accounting;
* :mod:`repro.dist.global_pi` -- the global progress indicator: per
  query, remaining = the slowest shard's remaining, per-shard
  contributions visible, and *always finite* -- a dead shard's estimate
  carries back its last finite value flagged degraded with explicit
  staleness, never NaN;
* :mod:`repro.dist.chaos` -- :class:`ClusterFaultInjector`, arming
  node-scoped fault plans (crash, partition, brownout) against the
  cluster;
* :mod:`repro.dist.dataset` -- sharded TPC-R loading, byte-identical to
  the single-node generator.

A cluster's settings are its shard count, replication factor,
processing rate and checkpoint interval; the epoch length (``TICK``),
the failover timeout, the sub-query retry backoff and the node breakers'
thresholds are fixed constants (DESIGN.md, "Fixed settings").  See
``docs/SHARDING.md`` for the design.
"""

from repro.dist.catalog import NodeStatus, ShardCatalog, TableMeta
from repro.dist.chaos import ClusterFaultInjector, ClusterInjectionEvent
from repro.dist.dataset import load_tpcr
from repro.dist.global_pi import (
    GlobalProgressAggregator,
    GlobalQueryEstimate,
    ShardEstimate,
)
from repro.dist.node import ShardNode
from repro.dist.partition import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.dist.router import (
    DistributedQuery,
    ShardedCluster,
    SubQuery,
    fragment_table,
    referenced_tables,
)

__all__ = [
    "BlockPartitioner",
    "ClusterFaultInjector",
    "ClusterInjectionEvent",
    "DistributedQuery",
    "GlobalProgressAggregator",
    "GlobalQueryEstimate",
    "HashPartitioner",
    "NodeStatus",
    "Partitioner",
    "RangePartitioner",
    "ShardCatalog",
    "ShardEstimate",
    "ShardNode",
    "ShardedCluster",
    "SubQuery",
    "TableMeta",
    "fragment_table",
    "load_tpcr",
    "referenced_tables",
]
