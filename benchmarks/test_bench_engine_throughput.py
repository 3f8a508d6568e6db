"""Engine throughput: a genuine timing benchmark (not a figure).

Times the paper's correlated-subquery query, a hash-join aggregate and a
full scan on the scaled TPC-R data.  pytest-benchmark runs these multiple
rounds; they guard against performance regressions in the executor and
confirm the engine is fast enough for the experiment suite (the other
benches run whole simulations on top of it).

``test_throughput_per_query`` records, per query, the best-of-N host
milliseconds and the work units charged per millisecond, and persists them
to ``BENCH_engine.json`` (atomically, one section per bench module -- same
scheme as ``BENCH_scale.json``).  Absolute times vary by machine, so these
are recorded, not gated.

``test_throughput_grouped_kernel`` is the grouping-kernel gate: a
``GROUP BY`` over a 120 k-row table whose key arrives clustered (``lineitem``
by ``partkey``) and one whose low-cardinality key arrives scattered, each
timed with the run fold and with the bucketing fold it replaced
(``BucketingAggregate``, the tests' oracle) on the same rows.  Rows and
work must be identical; the run fold must beat bucketing on the clustered
key by :data:`GROUPED_GATES` and cost no more on the scattered one
(``-k grouped``).

``test_checkpoint_cost_series`` is the checkpoint gate: a high-output scan
at the cluster's default cadence (one checkpoint per 2 U) must store, over
all its checkpoints, no more row references than the rows it emitted.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.engine.operators.agg import HashAggregate
from repro.obs.runtime import observed
from repro.sim.scale import merge_bench_json
from repro.workload.queries import join_query, paper_query
from repro.workload.tpcr import TpcrConfig, generate

from tests.engine.helpers import BucketingAggregate, undecorrelated

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: Floors on the run fold's speedup over the bucketing fold, same rows.
#: Measured at 120 k rows (Linux x86-64, CPython 3.11.7, five runs): a
#: clustered key folds run by run at 2.10-2.15x bucketing; a scattered
#: one is bucketed by both (1.01-1.03x).  The floors sit below those so a
#: loaded runner does not flake: under 1.5x means run detection stopped
#: firing, under 0.8x means the fallback got dearer.
GROUPED_GATES = {
    "grouped_clustered": 1.5,
    "grouped_unclustered": 0.8,
}

GROUPED_QUERIES = {
    "grouped_clustered": (
        "select partkey, sum(extendedprice), sum(quantity), count(*) "
        "from lineitem group by partkey"
    ),
    "grouped_unclustered": (
        "select k, sum(v), count(*) from scatter group by k"
    ),
}

#: A selective (~10 %) filter over the big table.  Ungated: it records the
#: per-value ``compare_values`` kernel under ``Filter`` -- the largest
#: piece of a cluster node's step loop once checkpoints stopped copying
#: -- as the baseline for whoever vectorizes it.
SELECTIVE_FILTER = "select partkey, quantity from lineitem where quantity > 45"

#: The checkpoint bench's query: every row of the big table is output.
HIGH_OUTPUT_SCAN = "select * from lineitem"

#: ``ShardedCluster``'s default checkpoint cadence, in U's.
CLUSTER_CHECKPOINT_INTERVAL = 2.0


@pytest.fixture(scope="module")
def dataset():
    return generate(TpcrConfig(scale=1 / 2000, seed=1), part_sizes={1: 5})


@pytest.fixture(scope="module")
def grouped_db():
    """120 k ``lineitem`` rows, stored in ``partkey`` order, beside a
    120 k-row ``scatter`` table whose key takes 7 values in random order."""
    db = generate(TpcrConfig(scale=1 / 200, seed=1), part_sizes={}).db
    rng = random.Random(7)
    db.execute("CREATE TABLE scatter (k INT, v FLOAT)")
    db.insert_rows(
        "scatter",
        [(rng.randrange(7), rng.uniform(1.0, 50.0)) for _ in range(120_000)],
    )
    return db


def _update_throughput(entries: dict) -> None:
    """Merge *entries* into the ``engine_throughput`` section, keeping
    what the other throughput test recorded there."""
    try:
        section = json.loads(BENCH_JSON.read_text())["engine_throughput"]
    except (OSError, ValueError, KeyError, TypeError):
        section = {}
    if not isinstance(section, dict):
        section = {}
    section.update(entries)
    merge_bench_json(BENCH_JSON, "engine_throughput", section)


def test_throughput_paper_query(benchmark, dataset):
    rows = benchmark(dataset.db.query, paper_query(1))
    assert 0 < len(rows) <= 50


def test_throughput_join_aggregate(benchmark, dataset):
    rows = benchmark(dataset.db.query, join_query(1))
    assert len(rows) <= 10


def test_throughput_full_scan(benchmark, dataset):
    rows = benchmark(
        dataset.db.query, "SELECT count(*), sum(quantity) FROM lineitem"
    )
    assert rows[0][0] == 12_000


def _best_of(fn, rounds: int, repeats: int = 3) -> float:
    """Best-of-N mean round time: robust against GC/scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        best = min(best, (time.perf_counter() - start) / rounds)
    return best


def _run(db, sql: str, fold=None):
    """Execute *sql* once; return (rows, charged work total).

    *fold* replaces the class of every ``HashAggregate`` in the plan, so
    one plan can be timed with another grouped fold.
    """
    ex = db.prepare(sql)
    if fold is not None:
        stack = [ex.root]
        while stack:
            op = stack.pop()
            if type(op) is HashAggregate:
                op.__class__ = fold
            stack.extend(op.children())
    rows = ex.run_to_completion()
    return rows, ex.work_done


def test_throughput_per_query(dataset):
    """Records batch ms and U/ms per query; not gated.  ``paper_query_per_row``
    is the paper query without the decorrelation rewrite: its subquery
    stays an expression node running one index-probe subplan per part row
    (the plan shape of Figs 8-10)."""
    db, per_row = dataset.db, undecorrelated(dataset.db)
    queries = {
        "full_scan": (db, "SELECT count(*), sum(quantity) FROM lineitem"),
        "join_aggregate": (db, join_query(1)),
        "selective_filter": (db, SELECTIVE_FILTER),
        "paper_query": (db, paper_query(1)),
        "paper_query_per_row": (per_row, paper_query(1)),
    }
    payload = {}
    for name, (db, sql) in queries.items():
        rows, work = _run(db, sql)
        ms = _best_of(lambda: db.query(sql), 10) * 1000
        payload[name] = {
            "sql": sql,
            "batch_ms": round(ms, 4),
            "u_per_ms": round(work / ms, 2),
            "rows": len(rows),
            "work_units": work,
            "decorrelated": "#dc" in db.explain(sql),
        }
    _update_throughput(payload)


def test_throughput_grouped_kernel(grouped_db):
    """Grouping-kernel gate: a clustered key folds run by run, a scattered
    one is bucketed; rows and work match the bucketing fold's."""
    payload = {}
    for name, sql in GROUPED_QUERIES.items():
        rows, work = _run(grouped_db, sql)
        assert (rows, work) == _run(grouped_db, sql, BucketingAggregate), name
        t_runs = _best_of(lambda: _run(grouped_db, sql), 2)
        t_buckets = _best_of(
            lambda: _run(grouped_db, sql, BucketingAggregate), 2
        )
        payload[name] = {
            "sql": sql,
            "batch_ms": round(t_runs * 1000, 4),
            "bucketing_ms": round(t_buckets * 1000, 4),
            "speedup_over_bucketing": round(t_buckets / t_runs, 3),
            "u_per_ms": round(work / (t_runs * 1000), 2),
            "rows": len(rows),
            "work_units": work,
            "floor": GROUPED_GATES[name],
        }
    _update_throughput(payload)
    for name, floor in GROUPED_GATES.items():
        assert payload[name]["speedup_over_bucketing"] >= floor, (
            f"{name}: run fold only {payload[name]['speedup_over_bucketing']}x "
            f"the bucketing fold (gate {floor}x); see {BENCH_JSON.name}"
        )


def test_throughput_scan_rows_per_sec():
    """Scan-rate series: rows/sec of a full columnar scan across page
    capacities (each point its own table via the per-table capacity
    override).  Persisted to ``BENCH_engine.json`` so the capacity/rate
    curve is visible alongside the per-query times."""
    from repro.engine import Database

    n_rows = 20_000
    rows = [(i % 97, float(i % 1013) * 0.5) for i in range(n_rows)]
    db = Database()
    series = []
    for cap in (10, 50, 200, 1000):
        name = f"sweep_{cap}"
        db.create_table(
            f"CREATE TABLE {name} (k INT, v FLOAT)", page_capacity=cap
        )
        db.insert_rows(name, rows)
        sql = f"SELECT count(*), sum(v) FROM {name}"
        assert db.query(sql) == [(n_rows, sum(r[1] for r in rows))]
        t = _best_of(lambda: db.query(sql), rounds=5)
        series.append(
            {
                "page_capacity": cap,
                "rows": n_rows,
                "ms": round(t * 1000, 4),
                "rows_per_sec": round(n_rows / t),
            }
        )
    merge_bench_json(
        BENCH_JSON, "scan_rows_per_sec", {"series": series}
    )
    # Sanity floor only (absolute rates vary by machine): the columnar
    # scan should clear 1M rows/sec at the default capacity on any box.
    by_cap = {p["page_capacity"]: p for p in series}
    assert by_cap[50]["rows_per_sec"] > 1_000_000


def test_paper_query_decorrelation_fired(dataset):
    """Plan-shape gate: the decorrelation pass must fire on the paper
    query.  Timing alone could mask a silent fallback to the per-row
    subquery path."""
    plan = dataset.db.explain(paper_query(1))
    assert "HashLeftJoin" in plan, plan
    assert "#dc" in plan, plan
    assert "HashAggregate" in plan, plan


def test_throughput_steppable_execution(benchmark, dataset):
    def stepped():
        ex = dataset.db.prepare(paper_query(1))
        while not ex.finished:
            ex.step(10.0)
        return ex

    ex = benchmark(stepped)
    assert ex.work_done > 0


def _stepped_scan(db, checkpoint_interval):
    """Run the high-output scan to completion in 10 U steps."""
    ex = db.prepare(HIGH_OUTPUT_SCAN, checkpoint_interval=checkpoint_interval)
    while not ex.finished:
        ex.step(10.0)
    return ex


def _checkpoint_counts(db) -> dict:
    """Checkpoints, rows and row references stored, from the counters."""
    with observed() as obs:
        ex = _stepped_scan(db, CLUSTER_CHECKPOINT_INTERVAL)
    return {
        "checkpoints_taken": ex.checkpoints_taken,
        "rows_emitted": len(ex.rows),
        "rows_copied": int(
            obs.metrics.counter_value("executor.checkpoint.rows_copied")
        ),
        "rows_at_last_checkpoint": ex.last_checkpoint.rows_emitted,
    }


def test_throughput_checkpointed_execution(benchmark, dataset):
    """Times the high-output scan with a checkpoint every 2 U; compare
    with ``test_checkpoint_cost_series``'s unchecked run of the same scan.
    Asserted here: the checkpoints were taken and cover the output."""
    ex = benchmark(_stepped_scan, dataset.db, CLUSTER_CHECKPOINT_INTERVAL)
    assert len(ex.rows) == 12_000
    assert ex.checkpoints_taken >= 100
    assert ex.last_checkpoint.rows_emitted > 0.9 * len(ex.rows)


def test_checkpoint_cost_series(dataset):
    """Checkpoint gate: a cadence checkpoint costs the rows emitted since
    the previous one.  Counts are gated and repeat exactly; host time is
    recorded, not asserted (a copy per checkpoint shows as a checkpointed
    run several times slower than the unchecked one)."""
    db = dataset.db
    counts = _checkpoint_counts(db)
    assert counts == _checkpoint_counts(db), "counts must repeat exactly"
    t_plain = _best_of(lambda: _stepped_scan(db, None), rounds=3)
    t_checkpointed = _best_of(
        lambda: _stepped_scan(db, CLUSTER_CHECKPOINT_INTERVAL), rounds=3
    )
    merge_bench_json(BENCH_JSON, "checkpoint", {
        "sql": HIGH_OUTPUT_SCAN,
        "checkpoint_interval": CLUSTER_CHECKPOINT_INTERVAL,
        **counts,
        "plain_ms": round(t_plain * 1000, 4),
        "checkpointed_ms": round(t_checkpointed * 1000, 4),
        "checkpointed_over_plain": round(t_checkpointed / t_plain, 3),
    })
    assert counts["checkpoints_taken"] >= 100
    assert (
        counts["rows_copied"]
        == counts["rows_at_last_checkpoint"]
        <= counts["rows_emitted"]
    ), f"checkpoints copy their history; see {BENCH_JSON.name}"
