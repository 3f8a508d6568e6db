"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sql``
    Run a SELECT against a freshly generated TPC-R-style database
    (``--explain`` shows the plan and cost estimate instead); any other
    statement is an error, since the database is discarded on exit.
``experiment``
    Run one of the paper's experiments (``mcq``, ``naq``, ``scq``,
    ``lambda``, ``maintenance``, ``table1``) and print the reproduced
    series/rows (``--csv`` also exports the data).
``report``
    Run the full evaluation and write a Markdown report.  With
    ``--observe``, instead run one observed seeded MCQ experiment and
    print its deterministic trace/metrics/accuracy summary (optionally
    writing the JSONL event trace); ``--validate-trace`` checks an
    existing trace file against the event schema.
``shard``
    Sharded-cluster demo: scatter-gather queries over an N-node cluster
    with a mid-flight node crash, checkpoint-restoring replica failover,
    and the fault-tolerant global progress indicator -- results are
    checked byte-for-byte against single-node execution.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Multi-query SQL Progress Indicators' "
            "(Luo, Naughton, Yu; EDBT 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sql = sub.add_parser("sql", help="run SQL against a generated TPC-R database")
    sql.add_argument("statement", help="the SELECT statement to run")
    sql.add_argument(
        "--scale", type=float, default=1 / 2000,
        help="dataset scale relative to the paper's 24M-row lineitem",
    )
    sql.add_argument(
        "--parts", type=int, default=3, help="number of part_i tables"
    )
    sql.add_argument(
        "--explain", action="store_true",
        help="show the plan and cost estimate instead of executing",
    )
    sql.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run one of the paper's experiments")
    exp.add_argument(
        "name",
        choices=[
            "mcq", "naq", "scq", "lambda", "adaptive", "maintenance", "table1",
        ],
        help="which experiment to run",
    )
    exp.add_argument("--runs", type=int, default=8, help="runs to average over")
    exp.add_argument("--seed", type=int, default=42)
    exp.add_argument(
        "--csv", default=None,
        help="also write the experiment's data to this CSV file",
    )

    rep = sub.add_parser(
        "report", help="run the full evaluation and write a Markdown report"
    )
    rep.add_argument("--out", default="REPORT.md", help="output file path")
    rep.add_argument("--runs", type=int, default=8, help="runs to average over")
    rep.add_argument("--seed", type=int, default=42)
    rep.add_argument(
        "--observe", action="store_true",
        help="instead run one observed seeded MCQ and print its "
             "trace/metrics/accuracy summary (deterministic)",
    )
    rep.add_argument(
        "--trace", default=None, metavar="PATH",
        help="with --observe: also write the run's JSONL event trace here",
    )
    rep.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="with --observe: merge the run's metrics into this bench "
             "JSON file (e.g. BENCH_scale.json)",
    )
    rep.add_argument(
        "--validate-trace", default=None, metavar="PATH",
        help="validate an existing JSONL trace file against the event "
             "schema and exit (no run)",
    )

    shard = sub.add_parser(
        "shard",
        help="sharded-cluster demo: node crash, failover, global PI",
    )
    shard.add_argument(
        "--shards", type=int, default=4, help="number of shards (= nodes)"
    )
    shard.add_argument(
        "--replication", type=int, default=2,
        help="replicas per fragment (1 disables failover)",
    )
    shard.add_argument(
        "--crash-node", default="node1", metavar="NODE",
        help="node to crash mid-flight (ignored with --seed / --no-fault)",
    )
    shard.add_argument(
        "--crash-at", type=float, default=3.0,
        help="virtual time of the scripted crash",
    )
    shard.add_argument(
        "--seed", type=int, default=None,
        help="use a seeded random node-fault plan instead "
             "of the scripted crash",
    )
    shard.add_argument(
        "--no-fault", action="store_true",
        help="run the cluster without any fault (baseline)",
    )
    shard.add_argument(
        "--checkpoint-interval", type=float, default=0.5,
        help="sub-query checkpoint cadence in work units",
    )

    over = sub.add_parser(
        "overload",
        help="overload-protection demo: admission gate + degradation "
             "ladder riding out an arrival storm",
    )
    over.add_argument(
        "--burst", type=int, default=40,
        help="queries in the arrival storm",
    )
    over.add_argument(
        "--cost", type=float, default=20.0,
        help="work per storm query, U's",
    )
    over.add_argument(
        "--spread", type=float, default=4.0,
        help="seconds the storm's arrivals are jittered over",
    )
    over.add_argument(
        "--rate", type=float, default=10.0, help="system capacity, U/s"
    )
    over.add_argument(
        "--mpl", type=int, default=4, help="multiprogramming limit"
    )
    over.add_argument(
        "--unprotected", action="store_true",
        help="run the same storm without admission control or ladder "
             "(the cliff the QoS layer prevents)",
    )
    over.add_argument("--seed", type=int, default=0)

    return parser


def cmd_sql(args: argparse.Namespace) -> int:
    """Run (or EXPLAIN) one SELECT against generated TPC-R data."""
    from repro.engine.errors import EngineError
    from repro.workload.tpcr import TpcrConfig, generate

    sizes = {i: 2 + i for i in range(1, args.parts + 1)}
    dataset = generate(
        TpcrConfig(scale=args.scale, seed=args.seed), part_sizes=sizes
    )
    db = dataset.db
    print("tables:", ", ".join(
        f"{name}({rows} rows)" for name, rows, _ in dataset.table_summary()
    ))
    try:
        if args.explain:
            print(db.explain(args.statement))
            print(f"estimated cost: {db.estimated_cost(args.statement):.1f} U")
        else:
            result = db.query(args.statement)
            for row in result[:50]:
                print(row)
            if len(result) > 50:
                print(f"... {len(result) - 50} more rows")
            print(f"({len(result)} rows)")
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper's experiments and print (optionally CSV) data."""
    from repro.experiments.reporting import format_series, format_table, write_csv

    csv_headers: list = []
    csv_rows: list = []

    if args.name == "mcq":
        from repro.experiments.harness import MULTI_QUERY, SINGLE_QUERY
        from repro.experiments.mcq import MCQConfig, run_mcq

        result = run_mcq(MCQConfig(seed=args.seed))
        print(f"focus query {result.focus_query}, finishes at "
              f"t={result.finish_time:.1f}s")
        print(format_series("actual", result.actual))
        print(format_series("single-query", result.estimates[SINGLE_QUERY]))
        print(format_series("multi-query", result.estimates[MULTI_QUERY]))
        csv_headers = ["series", "time", "value"]
        csv_rows = (
            [("actual", t, v) for t, v in result.actual]
            + [("single-query", t, v) for t, v in result.estimates[SINGLE_QUERY]]
            + [("multi-query", t, v) for t, v in result.estimates[MULTI_QUERY]]
        )
    elif args.name == "naq":
        from repro.experiments.naq import run_naq

        result = run_naq()
        print(f"Q3 starts t={result.q3_start:.0f}s, finishes "
              f"t={result.q3_finish:.0f}s; Q1 finishes t={result.q1_finish:.0f}s")
        for name, series in result.estimates.items():
            print(format_series(name, series))
        csv_headers = ["series", "time", "value"]
        csv_rows = [
            (name, t, v)
            for name, series in result.estimates.items()
            for t, v in series
        ]
    elif args.name == "scq":
        from repro.experiments.scq import SCQConfig, run_scq_sweep

        sweep = run_scq_sweep(SCQConfig(runs=args.runs, seed=args.seed))
        csv_headers = [
            "lambda", "single last", "multi last", "single avg", "multi avg"
        ]
        csv_rows = sweep.as_rows()
        print(format_table(csv_headers, csv_rows))
    elif args.name == "lambda":
        from repro.experiments.scq import SCQConfig, run_lambda_sensitivity

        sweep = run_lambda_sensitivity(SCQConfig(runs=args.runs, seed=args.seed))
        csv_headers = [
            "lambda'", "single last", "multi last", "single avg", "multi avg"
        ]
        csv_rows = sweep.as_rows()
        print(format_table(csv_headers, csv_rows))
    elif args.name == "adaptive":
        from repro.experiments.scq import SCQConfig, run_adaptive_trace

        trace = run_adaptive_trace(SCQConfig(runs=1, seed=args.seed))
        print(
            f"focus {trace.focus_query}, finishes at t={trace.finish_time:.1f}s "
            "(true lambda = 0.03)"
        )
        for lp, series in trace.series.items():
            print(format_series(f"lambda' = {lp}", series))
        csv_headers = ["lambda_prime", "time", "estimate"]
        csv_rows = [
            (lp, t, v) for lp, series in trace.series.items() for t, v in series
        ]
    elif args.name == "maintenance":
        from repro.experiments.maintenance import (
            MaintenanceConfig,
            run_maintenance_sweep,
        )

        sweep = run_maintenance_sweep(
            MaintenanceConfig(runs=args.runs, seed=args.seed)
        )
        csv_headers = ["t/t_finish"] + list(sweep.curves)
        csv_rows = [
            [frac] + [sweep.curves[m][i] for m in sweep.curves]
            for i, frac in enumerate(sweep.fractions)
        ]
        print(format_table(csv_headers, csv_rows))
    elif args.name == "table1":
        from repro.experiments.tables import build_table1

        result = build_table1()
        print(result.render())
        csv_headers = ["table", "tuples", "pages"]
        csv_rows = [(r.table, r.tuples, r.pages) for r in result.rows]

    if args.csv and csv_rows:
        n = write_csv(args.csv, csv_headers, csv_rows)
        print(f"wrote {n} rows to {args.csv}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the Markdown report, or (``--observe``) an observed-run
    trace/metrics/accuracy summary, or validate an existing trace file."""
    if args.validate_trace is not None:
        from repro.obs.tracer import TraceSchemaError, validate_trace_file

        try:
            count = validate_trace_file(args.validate_trace)
        except (OSError, TraceSchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate_trace}: {count} events, schema ok")
        return 0

    if args.observe:
        from repro.obs.report import format_observed_run, run_observed_mcq

        run = run_observed_mcq(seed=args.seed, trace_path=args.trace)
        print(format_observed_run(run))
        if args.trace:
            print(f"\nwrote trace to {args.trace} ({run.events} events)")
        if args.metrics_json:
            run.obs.metrics.merge_into(args.metrics_json)
            print(f"merged 'metrics' section into {args.metrics_json}")
        return 0

    from repro.experiments.full_report import ReportConfig, generate_report

    text = generate_report(ReportConfig(runs=args.runs, seed=args.seed))
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """Sharded-cluster demo: crash a node mid-flight, watch the failover.

    Loads the TPC-R tables across an N-node cluster, runs one pushdown
    scan and one gather join, injects a node crash (or a seeded random
    node-fault plan), prints sampled global-PI snapshots with per-shard
    contributions, and finally checks every result byte-for-byte against
    single-node execution of the same SQL.
    """
    from repro.dist import ClusterFaultInjector, ShardedCluster, load_tpcr
    from repro.faults.plan import FaultPlan, NodeCrash, random_fault_plan
    from repro.workload.tpcr import TpcrConfig, generate

    if args.shards < 2:
        print(f"error: --shards must be >= 2, got {args.shards}",
              file=sys.stderr)
        return 1
    if not 1 <= args.replication <= args.shards:
        print(f"error: --replication must be in [1, {args.shards}], "
              f"got {args.replication}", file=sys.stderr)
        return 1

    cluster = ShardedCluster(
        n_shards=args.shards,
        replication=args.replication,
        processing_rate=4.0,
        checkpoint_interval=args.checkpoint_interval,
    )
    counts = load_tpcr(cluster)
    print(f"cluster: {args.shards} shards x {args.replication} replicas; "
          + ", ".join(f"{t}({n} rows)" for t, n in counts.items()))

    queries = {
        "Q1": "SELECT * FROM lineitem WHERE partkey > 0",
        "Q2": ("SELECT p.partkey, SUM(l.extendedprice) FROM part_1 p, "
               "lineitem l WHERE p.partkey = l.partkey "
               "GROUP BY p.partkey ORDER BY p.partkey"),
    }
    for qid, sql in queries.items():
        dq = cluster.submit(qid, sql)
        print(f"  {qid} [{dq.strategy}] {sql}")

    injector = None
    if not args.no_fault:
        if args.seed is not None:
            plan = random_fault_plan(
                args.seed, cluster.node_ids(), horizon=10.0
            )
        else:
            if args.crash_node not in cluster.node_ids():
                print(f"error: unknown node {args.crash_node!r} "
                      f"(have {', '.join(cluster.node_ids())})",
                      file=sys.stderr)
                return 1
            plan = FaultPlan.of(NodeCrash(args.crash_node, at=args.crash_at))
        print("fault plan:")
        for line in plan.describe().splitlines() or ["  (empty)"]:
            print(f"  {line}")
        injector = ClusterFaultInjector(cluster, plan)
        injector.arm()

    print("\nglobal PI (remaining s; * = degraded/carried-back):")
    t = 0.0
    while not all(dq.terminal for dq in cluster.queries().values()):
        t += 2.0
        if t > 1e5:
            print("error: cluster did not quiesce", file=sys.stderr)
            return 1
        cluster.run_until(t)
        if round(t) % 10:  # sample the PI every virtual 10s
            continue
        parts = []
        for qid in queries:
            est = cluster.global_estimate(qid)
            shards = " ".join(
                f"s{shard}:{c.remaining_seconds:.1f}"
                + ("*" if c.degraded else "")
                for shard, c in sorted(est.shards.items())
            )
            parts.append(f"{qid}={est.remaining_seconds:6.1f} [{shards}]")
        print(f"  t={t:6.1f}s  " + "  ".join(parts))

    print("\nfault/recovery log:")
    if injector is not None and injector.log:
        for event in injector.log:
            print(f"  t={event.time:6.2f}s  {event.kind:<18} "
                  f"{event.node_id}  {event.description}")
    else:
        print("  (no faults injected)")

    single = generate(TpcrConfig()).db
    print("\noutcome:")
    all_ok = True
    for qid, sql in queries.items():
        dq = cluster.query(qid)
        if not dq.finished:
            print(f"  {qid}: {dq.status} ({dq.error})")
            all_ok = False
            continue
        expected = single.query(sql)
        identical = list(cluster.result_rows(qid)) == list(expected)
        all_ok &= identical
        print(f"  {qid}: finished t={dq.finished_at:.1f}s, "
              f"{len(dq.result)} rows, identical to single-node: "
              f"{'yes' if identical else 'NO'}")
    preserved, lost = cluster.work_preserved, cluster.work_lost
    if preserved + lost > 0:
        pct = 100.0 * preserved / (preserved + lost)
        print(f"  failovers: {cluster.failovers}; work preserved across "
              f"failover: {preserved:.2f} U ({pct:.0f}%), lost {lost:.2f} U")
    else:
        print(f"  failovers: {cluster.failovers}")
    return 0 if all_ok else 1


def cmd_overload(args: argparse.Namespace) -> int:
    """Ride out an arrival storm behind the QoS layer (or without it)."""
    from repro.qos import (
        AdmissionController,
        AdmissionPolicy,
        DegradationLadder,
        LadderConfig,
    )
    from repro.sim.arrivals import ArrivalSchedule
    from repro.sim.jobs import SyntheticJob
    from repro.sim.rdbms import SimulatedRDBMS

    for name, value, floor in (
        ("--burst", args.burst, 1),
        ("--mpl", args.mpl, 1),
    ):
        if value < floor:
            print(f"error: {name} must be >= {floor}, got {value}",
                  file=sys.stderr)
            return 1
    for name, value in (("--cost", args.cost), ("--rate", args.rate)):
        if not value > 0.0:
            print(f"error: {name} must be > 0, got {value:g}",
                  file=sys.stderr)
            return 1
    if args.spread < 0.0:
        print(f"error: --spread must be >= 0, got {args.spread:g}",
              file=sys.stderr)
        return 1

    rdbms = SimulatedRDBMS(
        processing_rate=args.rate, multiprogramming_limit=args.mpl
    )
    gate = ladder = None
    if not args.unprotected:
        gate = AdmissionController(
            rdbms,
            AdmissionPolicy(
                max_in_flight=4 * args.mpl,
                work_budget=8.0 * args.rate,
            ),
        ).attach()
        ladder = DegradationLadder(
            rdbms, LadderConfig(), admission=gate
        ).attach()

    # A protected baseline workload: deadline queries the storm threatens.
    for i in range(4):
        rdbms.submit(
            SyntheticJob(f"vip{i}", cost=30.0, priority=1, deadline=60.0)
        )
    at = 2.0
    storm = ArrivalSchedule()
    storm.add_burst(
        at, args.burst,
        lambda i: SyntheticJob(f"burst{i}", args.cost, priority=0),
        spread=args.spread, seed=args.seed,
    )
    rdbms.schedule(storm)
    window = f" over {args.spread:g}s" if args.spread > 0 else ""
    print(f"storm: burst    {args.burst} x {args.cost:g} U at t={at:g}s"
          f"{window} (burst*)")
    print(f"capacity {args.rate:g} U/s, mpl {args.mpl}, "
          f"protection {'OFF' if args.unprotected else 'ON'}")
    rdbms.run_to_completion(max_time=100000.0)

    records = rdbms.records().values()
    finished = [r for r in records if r.status == "finished"]
    makespan = rdbms.clock
    goodput = sum(r.job.completed_work for r in finished) / makespan
    vips = [rdbms.record(f"vip{i}") for i in range(4)]
    hits = sum(1 for r in vips if r.status == "finished")
    print()
    print(f"makespan            {makespan:8.1f} s")
    print(f"finished            {len(finished):5d} / {len(records)} queries")
    print(f"goodput             {goodput:8.2f} U/s")
    print(f"vip deadlines held  {hits:5d} / {len(vips)}")
    if gate is not None:
        counts = gate.counts()
        print(f"admission           "
              + "  ".join(f"{k}={v}" for k, v in counts.items()))
    if ladder is not None:
        peak = max((e.rung for e in ladder.events), default=0)
        print(f"ladder              peak rung {peak} "
              f"({len(ladder.shed_ids)} shed, "
              f"{len(ladder.events)} actions)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "sql":
        return cmd_sql(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "shard":
        return cmd_shard(args)
    if args.command == "overload":
        return cmd_overload(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
