"""Sharded-cluster bench: PI refresh cost and failover recovery vs N.

Sweeps the shard count, and for each cluster size measures

* the wall-clock cost of a full global-PI refresh (``cluster.estimates()``
  across all in-flight distributed queries, per-shard contributions and
  all) while the cluster is mid-execution;
* the virtual-time cost of a node crash: how much later the workload
  finishes than the no-fault baseline, and what fraction of the dead
  node's checkpointed work the failover preserved.

Persists the sweep to ``BENCH_shard.json`` (section ``"shard"``) and
asserts the robustness headlines: results stay byte-identical to
single-node execution through the crash, most checkpointed work
survives, and the refresh cost stays far below the simulated epoch.

A second series (section ``"gather"``) records what the gather path's
merged-table cache and the aggregator's stored contributions are worth:
host ms of the 1st vs the 2nd...qth gather query over one table at 4
shards, and host us per ``GlobalQueryEstimate`` at each shard count.  It
is gated on counts only -- one table build for q same-table queries, no
``ShardEstimate`` constructed by a roll-up without degraded shards --
because those repeat exactly; the timings are recorded, not asserted.

``REPRO_SHARD_SIZES`` (comma-separated shard counts) overrides the sweep
for quick CI runs.  Run with ``pytest -m shard benchmarks/``.
"""

import os
import time
from pathlib import Path

import pytest

from repro.dist import ClusterFaultInjector, ShardedCluster, global_pi, load_tpcr
from repro.experiments.reporting import format_table
from repro.faults.plan import FaultPlan, NodeCrash
from repro.obs import Observability
from repro.sim.scale import merge_bench_json
from repro.workload.tpcr import TpcrConfig, generate

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

SMALL = TpcrConfig(scale=1 / 2000, seed=0)  # 12,000 lineitem rows
QUERIES = {
    "scan": "SELECT * FROM lineitem WHERE partkey > 0",
    "group": "SELECT partkey, SUM(quantity) FROM lineitem "
             "GROUP BY partkey ORDER BY partkey",
}
DEFAULT_SIZES = (2, 4, 8)
REFRESH_ROUNDS = 200


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_SHARD_SIZES", "")
    if not raw.strip():
        return DEFAULT_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def make_cluster(n_shards: int) -> ShardedCluster:
    cluster = ShardedCluster(
        n_shards=n_shards,
        replication=2,
        processing_rate=10.0,
        checkpoint_interval=0.25,
    )
    load_tpcr(cluster, config=SMALL)
    for qid, sql in QUERIES.items():
        cluster.submit(qid, sql)
    return cluster


def measure(n_shards: int) -> dict:
    # --- Global-PI refresh cost, mid-flight -------------------------
    cluster = make_cluster(n_shards)
    cluster.run_until(1.0)  # everything running, nothing finished
    start = time.perf_counter()
    for _ in range(REFRESH_ROUNDS):
        estimates = cluster.estimates()
    refresh_seconds = (time.perf_counter() - start) / REFRESH_ROUNDS
    n_contributions = sum(len(e.shards) for e in estimates.values())
    cluster.run_to_completion()
    baseline_finish = max(
        dq.finished_at for dq in cluster.queries().values()
    )

    # --- Failover recovery: crash one node mid-flight ---------------
    crashed = make_cluster(n_shards)
    ClusterFaultInjector(
        crashed, FaultPlan.of(NodeCrash("node1", at=1.5))
    ).arm()
    crashed.run_to_completion(max_time=10_000.0)
    crash_finish = max(
        dq.finished_at for dq in crashed.queries().values()
    )
    total = crashed.work_preserved + crashed.work_lost
    single = generate(SMALL).db
    identical = all(
        crashed.result_rows(qid) == single.query(sql)
        for qid, sql in QUERIES.items()
    )
    return {
        "n_shards": n_shards,
        "refresh_seconds": refresh_seconds,
        "n_contributions": n_contributions,
        "baseline_finish": baseline_finish,
        "crash_finish": crash_finish,
        "recovery_penalty": crash_finish - baseline_finish,
        "failovers": crashed.failovers,
        "work_preserved_fraction": (
            crashed.work_preserved / total if total > 0 else 1.0
        ),
        "identical": identical,
    }


@pytest.mark.shard
def test_shard_refresh_and_failover(once):
    sizes = _sizes()

    def sweep():
        return [measure(n) for n in sizes]

    points = once(sweep)
    merge_bench_json(
        BENCH_JSON, "shard",
        {"sizes": list(sizes), "refresh_rounds": REFRESH_ROUNDS,
         "points": points},
    )

    print()
    print("Global-PI refresh cost and crash recovery vs shard count:")
    print(
        format_table(
            ["shards", "refresh (us)", "contribs", "finish (s)",
             "crash finish (s)", "failovers", "preserved"],
            [
                (
                    p["n_shards"],
                    f"{p['refresh_seconds'] * 1e6:.1f}",
                    p["n_contributions"],
                    f"{p['baseline_finish']:.1f}",
                    f"{p['crash_finish']:.1f}",
                    p["failovers"],
                    f"{p['work_preserved_fraction']:.0%}",
                )
                for p in points
            ],
        )
    )

    for p in points:
        n = p["n_shards"]
        # Correctness through the crash is non-negotiable.
        assert p["identical"], f"n={n}: results diverged after failover"
        assert p["failovers"] >= 1, f"n={n}: crash caused no failover"
        # Checkpointing must preserve the bulk of the dead node's work.
        assert p["work_preserved_fraction"] >= 0.5, (
            f"n={n}: only {p['work_preserved_fraction']:.0%} preserved"
        )
        # A full global refresh must be far cheaper than the 0.25 s
        # epoch it runs inside -- PI overhead must not distort the sim.
        assert p["refresh_seconds"] < 0.025, (
            f"n={n}: refresh costs {p['refresh_seconds'] * 1e3:.1f} ms"
        )
        # Recovery costs time, but bounded: the cluster re-runs at most
        # the lost tail, not the whole workload.
        assert p["crash_finish"] <= 3.0 * p["baseline_finish"] + 5.0, (
            f"n={n}: crash recovery blew the finish time out to "
            f"{p['crash_finish']:.1f}s vs {p['baseline_finish']:.1f}s"
        )

    # Validate the persisted report round-trips.
    import json

    data = json.loads(BENCH_JSON.read_text())
    assert data["shard"]["sizes"] == list(sizes)
    assert len(data["shard"]["points"]) == len(sizes)


# ----------------------------------------------------------------------
# Gather cache and roll-up cost
# ----------------------------------------------------------------------

GATHER_QUERIES = 6
ROLLUP_QUERIES = 8


def measure_gather(n_shards: int = 4) -> dict:
    """Host ms of q sequential gather queries over ``lineitem``."""
    obs = Observability()
    cluster = ShardedCluster(
        n_shards=n_shards, replication=2, processing_rate=10.0, obs=obs
    )
    load_tpcr(cluster, config=SMALL)
    single = generate(SMALL).db
    host_ms = []
    identical = True
    for k in range(GATHER_QUERIES):
        sql = ("SELECT partkey, SUM(quantity) FROM lineitem "
               f"WHERE quantity > {k} GROUP BY partkey ORDER BY partkey")
        start = time.perf_counter()
        cluster.submit(f"g{k}", sql)
        cluster.run_to_completion()
        host_ms.append((time.perf_counter() - start) * 1e3)
        identical = identical and cluster.result_rows(f"g{k}") == single.query(sql)
    later = sorted(host_ms[1:])
    return {
        "n_shards": n_shards,
        "queries": GATHER_QUERIES,
        "first_query_ms": host_ms[0],
        "later_query_ms_median": later[len(later) // 2],
        "tables_built": int(
            obs.metrics.counter_value("dist.gather.tables_built")
        ),
        "tables_reused": int(
            obs.metrics.counter_value("dist.gather.tables_reused")
        ),
        "identical": identical,
    }


def measure_rollup(n_shards: int, monkeypatch) -> dict:
    """Host us per ``GlobalQueryEstimate`` with every shard fresh."""
    cluster = ShardedCluster(
        n_shards=n_shards, replication=2, processing_rate=10.0
    )
    load_tpcr(cluster, config=SMALL)
    for k in range(ROLLUP_QUERIES):
        cluster.submit(f"s{k}", f"SELECT * FROM lineitem WHERE partkey > {k}")
    cluster.run_until(1.0)  # everything running, nothing degraded
    start = time.perf_counter()
    for _ in range(REFRESH_ROUNDS):
        estimates = cluster.estimates()
    seconds = time.perf_counter() - start
    constructed = []
    real = global_pi.ShardEstimate

    def counting(*args):
        constructed.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(global_pi, "ShardEstimate", counting)
        cluster.estimates()
    return {
        "n_shards": n_shards,
        "queries": len(estimates),
        "us_per_estimate": seconds / (REFRESH_ROUNDS * len(estimates)) * 1e6,
        "degraded": sum(e.degraded for e in estimates.values()),
        "shard_estimates_constructed": len(constructed),
    }


@pytest.mark.shard
def test_gather_cache_and_rollup(once, monkeypatch):
    sizes = _sizes()

    def sweep():
        return {
            "one_table": measure_gather(),
            "rollup": [measure_rollup(n, monkeypatch) for n in sizes],
        }

    series = once(sweep)
    merge_bench_json(BENCH_JSON, "gather", series)

    gather = series["one_table"]
    print()
    print(f"Gather over one table, {gather['n_shards']} shards: "
          f"1st query {gather['first_query_ms']:.0f} ms, "
          f"2nd..{gather['queries']}th {gather['later_query_ms_median']:.0f} ms "
          f"(median); built {gather['tables_built']}, "
          f"reused {gather['tables_reused']}")
    print(
        format_table(
            ["shards", "queries", "us / GlobalQueryEstimate", "constructed"],
            [
                (p["n_shards"], p["queries"], f"{p['us_per_estimate']:.2f}",
                 p["shard_estimates_constructed"])
                for p in series["rollup"]
            ],
        )
    )

    assert gather["identical"]
    assert gather["tables_built"] == 1
    assert gather["tables_reused"] == GATHER_QUERIES - 1
    for p in series["rollup"]:
        assert p["degraded"] == 0 and p["queries"] == ROLLUP_QUERIES
        assert p["shard_estimates_constructed"] == 0
