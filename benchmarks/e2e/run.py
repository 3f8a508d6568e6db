"""End-to-end benchmark: SQL text -> engine -> sim -> PI -> wm/qos -> dist.

Three ways to call it (see README.md beside this file):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

``run.py [--seed N] [--trace] [--quick] [--out FILE]``
    Every workload, each in a fresh subprocess, one at a time.

``run.py --compare A B``
    Two ``--out`` files (or two comma-separated lists of them, read as
    medians) against the bounds in ``BENCHMARK.json``.

Exits non-zero, printing no metrics, when any output fails verification.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.engine.database import Database  # noqa: E402
from repro.engine.decorrelate import decorrelate_statement  # noqa: E402
from repro.engine.sql import parse_statement  # noqa: E402
from repro.obs import observed  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Metrics of the simulation: the same seed must reproduce them exactly.
SIMULATED = ("pi_err_frac", "sim_goodput_u_per_vs", "finished_frac")
NULL = NullTracer()


class VerificationError(Exception):
    """Some output of the program was wrong; carries every finding."""


def environment(seed: int) -> dict:
    """Where the numbers were taken.  Recorded, never set."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "REPRO_ENGINE_NUMPY": os.environ.get("REPRO_ENGINE_NUMPY", "unset"),
    }


def timed_build(workload, setups: list):
    t0 = perf_counter()
    data = workload.build()
    setups.append(perf_counter() - t0)
    return data


def build_for_reps(workload, setups: list, seconds: float):
    """Set up at least three times; cheap set-ups for up to a second."""
    if workload.fresh_data_per_rep:
        return None
    data = timed_build(workload, setups)
    while len(setups) < 3 or sum(setups) < min(seconds, 1.0):
        data = timed_build(workload, setups)
    return data


def one_rep(workload, data, setups, tracer=NULL, check=False):
    gc.collect()
    if workload.fresh_data_per_rep:
        data = timed_build(workload, setups)
    return workload.repetition(data, tracer, check)


def verified_warm_up(workload, data, setups):
    """The untimed first repetition, whose outputs are checked."""
    rep = one_rep(workload, data, setups, check=True)
    problems = workload.verify(data, rep)
    if problems:
        raise VerificationError(problems[:20])
    return rep.digest()


def measure_end_to_end(workload, seconds: float, min_reps: int):
    setups: list[float] = []
    data = build_for_reps(workload, setups, seconds)
    digest = verified_warm_up(workload, data, setups)
    walls, pi_us, pi_share, attempted, failed = [], [], [], 0, 0
    while len(walls) < min_reps or sum(walls) < seconds:
        rep = one_rep(workload, data, setups)
        if rep.digest() != digest:
            raise VerificationError(
                [f"repetition {len(walls)} signature {rep.digest()} != {digest}"]
            )
        walls.append(rep.wall_s)
        # Per repetition a ratio of totals (a shrinking population does not
        # skew it); across repetitions the median (one preempted refresh
        # does not either).
        pi_us.append(rep.pi_s / rep.estimates * 1e6)
        pi_share.append(rep.pi_s / (rep.wall_s - rep.pi_s))
        attempted += rep.offered
        failed += sum(
            1 for o in rep.outcomes.values()
            if o.status not in ("finished", "aborted", "rejected")
        )
        # Executions hold operator state (hash tables, result rows); kept
        # alive they would tax the next repetition's collector passes.
        rep.live.clear()
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_u_per_s": rep.work_u / wall,
        "pi_us_per_estimate": statistics.median(pi_us),
        "pi_overhead_frac": statistics.median(pi_share),
        "pi_err_frac": rep.pi_err_frac(),
        "sim_goodput_u_per_vs": rep.work_u / rep.makespan,
        "finished_frac": rep.finished / rep.offered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    spread = (max(walls) - min(walls)) / wall
    print(f"repetitions {workload.name} {len(walls)} timed, wall median "
          f"{wall:.4f} s (range {spread:.1%} of it), {len(setups)} set-ups")
    return metrics, digest, attempted, failed


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


#: Spans reported as ``<span>_s``, and the call counts reported beside them.
SPAN_SECONDS = (
    "engine.prepare", "engine.step", "sim.run", "sim.submit", "sim.snapshot",
    "core.estimate", "core.remaining_times", "core.single_pi", "qos.decide",
    "dist.submit", "dist.node_step", "dist.node_pi", "dist.estimates",
)
SPAN_CALLS = {
    "engine.prepare_calls": "engine.prepare", "engine.step_calls": "engine.step",
    "sim.snapshot_calls": "sim.snapshot", "core.estimate_calls": "core.estimate",
    "core.remaining_times_calls": "core.remaining_times",
    "qos.decisions": "qos.decide", "dist.epochs": "dist.epoch",
    "dist.estimates_calls": "dist.estimates",
}


def layer_metrics(rep, tracer: Tracer) -> dict:
    """The per-layer metrics of one traced repetition."""
    spans = tracer.by_name()
    nothing = (0.0, 0, 0.0)
    m = {f"{name}_s": spans.get(name, nothing)[0] for name in SPAN_SECONDS}
    m.update({
        metric: spans.get(name, nothing)[1] for metric, name in SPAN_CALLS.items()
    })
    steps, decisions = m["engine.step_calls"], m["qos.decisions"]
    work = sum(o.work for o in rep.outcomes.values())
    loop_self = spans.get("sim.run", nothing)[2]
    core_s = (m["core.estimate_s"] + m["core.remaining_times_s"]
              + m["core.single_pi_s"])
    admitted = rep.counts.get("admit", 0) + rep.counts.get("degrade", 0)
    gathered = rep.counts.get("strategy.gather", 0)
    finalize = rep.layer.get("dist.finalize_s", 0.0)
    latencies = rep.layer.get("qos.latencies", [])
    supported = rep.live.get("supported", [])
    m.update({
        "engine.work_u": work if steps else 0.0,
        "engine.us_per_u": m["engine.step_s"] / work * 1e6 if steps else 0.0,
        "engine.us_per_step_call": (
            m["engine.step_s"] / steps * 1e6 if steps else 0.0
        ),
        "engine.result_rows": sum(
            len(j.execution.rows) for j in rep.live.get("jobs", [])
        ),
        "sim.loop_self_s": loop_self,
        "sim.us_per_advance_call": loop_self / steps * 1e6 if steps else 0.0,
        "sim.virtual_s": rep.makespan,
        "core.estimates_delivered": rep.estimates,
        "core.us_per_estimate": core_s / rep.estimates * 1e6 if core_s else 0.0,
        "core.refresh_ms_p50": percentile(rep.refresh_s, 0.50) * 1e3,
        "core.refresh_ms_p95": percentile(rep.refresh_s, 0.95) * 1e3,
        "core.shared_schedule_supported": float(
            bool(supported) and all(supported)
        ),
        "qos.decide_us_p50": percentile(latencies, 0.50) * 1e6,
        "qos.decide_us_p95": percentile(latencies, 0.95) * 1e6,
        "qos.admit": admitted,
        "qos.defer": rep.counts.get("defer", 0),
        "qos.reject": rep.counts.get("reject", 0),
        "qos.admit_per_decision": admitted / decisions if decisions else 0.0,
        "qos.deadline_aborts": rep.counts.get("deadline_aborts", 0),
        "qos.shed": rep.counts.get("shed", 0),
        "qos.peak_rung": rep.counts.get("peak_rung", 0),
        "dist.subqueries": rep.layer.get("dist.subqueries", 0),
        "dist.finalize_s": finalize,
        "dist.router_self_s": (
            spans["dist.epoch"][2] - finalize if "dist.epoch" in spans else 0.0
        ),
        "dist.gather_ms_per_query": finalize / gathered * 1e3 if gathered else 0.0,
        "dist.rows_reslotted": rep.layer.get("dist.rows_reslotted", 0),
    })
    for name in ("wm.choose_victim_ms", "wm.choose_victim_for_all_ms",
                 "wm.plan_maintenance_ms"):
        values = rep.layer.get(name)
        m[name] = statistics.median(values) if values else 0.0
    return m


def time_planning(workload, data) -> dict:
    """Parse and decorrelate every distinct SQL text once, outside any run."""
    out = {"engine.parse_s": 0.0, "engine.decorrelate_s": 0.0}
    for sql in workload.distinct_sql():
        t0 = perf_counter()
        statement = parse_statement(sql)
        t1 = perf_counter()
        out["engine.parse_s"] += t1 - t0
        if isinstance(data, Database):
            decorrelate_statement(statement, data.catalog)
            out["engine.decorrelate_s"] += perf_counter() - t1
    return out


def obs_overhead(workload, data, pairs: int) -> dict:
    """Cost of running observed: min ratio over back-to-back pairs.

    Noise only ever inflates one measurement, so the smallest ratio seen
    is the tightest estimate of the intrinsic one (the method of
    ``benchmarks/test_bench_obs_overhead.py``).
    """
    best, events = float("inf"), 0
    for _ in range(pairs):
        gc.collect()
        plain = workload.repetition(data, NULL).wall_s
        gc.collect()
        with observed() as bundle:
            watched = workload.repetition(data, NULL).wall_s
            events = bundle.tracer.emitted
        best = min(best, watched / plain)
    return {"obs.enabled_overhead_frac": best - 1.0, "obs.events_emitted": events}


def measure_per_layer(workload, seconds: float, min_pairs: int):
    setups: list[float] = []
    t0 = perf_counter()
    lineitem_rows = workload.generate_rows()
    generate_s = perf_counter() - t0
    data = None
    if not workload.fresh_data_per_rep:
        data = timed_build(workload, setups)
    digest = verified_warm_up(workload, data, setups)
    plain_walls, traced_walls, per_rep = [], [], []
    attempted = 0
    # Per-layer numbers carry no bound, so the traced run spends about
    # half of what the end-to-end run does.
    budget = seconds * 0.6
    while len(per_rep) < min_pairs or sum(plain_walls + traced_walls) < budget:
        plain_walls.append(one_rep(workload, data, setups).wall_s)
        tracer = Tracer(f"{workload.name}/{len(per_rep)}")
        rep = one_rep(workload, data, setups, tracer)
        if rep.digest() != digest:
            raise VerificationError(
                [f"traced run is void: signature {rep.digest()} != {digest}"]
            )
        layers = sum(tracer.self_times())
        if abs(layers - rep.wall_s) > 0.02 * rep.wall_s:
            raise VerificationError(
                [f"layer self times sum to {layers}, traced wall {rep.wall_s}"]
            )
        traced_walls.append(rep.wall_s)
        attempted += rep.offered
        per_rep.append(layer_metrics(rep, tracer))
    metrics = {
        name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]
    }
    plain = statistics.median(plain_walls)
    metrics.update(time_planning(workload, data))
    metrics.update({
        "workload.generate_s": generate_s,
        "workload.lineitem_rows": lineitem_rows,
        "dist.load_s": (
            statistics.median(setups) if workload.fresh_data_per_rep else 0.0
        ),
        "trace.overhead_frac": (statistics.median(traced_walls) - plain) / plain,
        "trace.wall_s": statistics.median(traced_walls),
        "obs.enabled_overhead_frac": 0.0,
        "obs.events_emitted": 0,
    })
    if workload.name == "mcq_paper":
        metrics.update(obs_overhead(workload, data, pairs=3))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    print(f"repetitions {workload.name} {len(per_rep)} traced + "
          f"{len(plain_walls)} untraced, spans in "
          f"{(OUT_DIR / f'trace-{workload.name}.jsonl').relative_to(ROOT)}")
    return metrics, digest, attempted, 0


def run_one(args) -> int:
    """One workload in this process; the contract's single-line result."""
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    declared = PER_LAYER if args.trace else END_TO_END
    few = 1 if args.quick or args.trace else 3
    for key, value in environment(args.seed).items():
        print(f"env {key} {value}")
    try:
        if args.trace:
            result = measure_per_layer(workload, args.seconds, few)
        else:
            result = measure_end_to_end(workload, args.seconds, few)
    except VerificationError as exc:
        for problem in exc.args[0]:
            print(f"verification failed: {workload.name}: {problem}",
                  file=sys.stderr)
        return 1
    metrics, digest, attempted, failed = result
    if set(metrics) != set(declared):
        sys.exit(f"run.py: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    print(f"signature {workload.name} {digest}")
    print(f"attempted {workload.name} {attempted} queries, {failed} failed")
    for name, value in metrics.items():
        print(f"metric {workload.name} {name} {value:.6g} {declared[name]['unit']}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh subprocess, one at a time."""
    env = environment(args.seed)
    for key, value in env.items():
        print(f"env {key} {value}")
    print("load: one single-threaded process per workload, one at a time; "
          "storm_qos is an open loop in virtual time, generator lateness 0 "
          "by construction")
    report = {"env": env, "quick": args.quick, "workloads": {}}
    status = 0
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    for name in names:
        entry = report["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, text=True, capture_output=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0:
                print(f"FAILED {name} (trace {trace}): no metrics")
                status = 1
                continue
            for line in lines[:-1]:
                if not line.startswith("env "):
                    print(line)
                if line.startswith("signature "):
                    entry.setdefault("signatures", []).append(line.split()[2])
            result = json.loads(lines[-1])
            entry["per_layer" if trace else "end_to_end"] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
        if len(set(entry.get("signatures", []))) > 1:
            print(f"FAILED {name}: traced and untraced signatures differ")
            status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def load_reports(paths: str) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths.split(",")]


def compare(paths_a: str, paths_b: str) -> int:
    """B against A, each one ``--out`` file or several, comma-separated.

    Several files stand for several runs of one commit and are read as
    their median, the way the bounds are meant: one run on a shared box
    can be a fifth off its neighbour.  Exits 1 if any end-to-end metric of
    B is worse than A's by more than its bound, or if files of one seed
    disagree on anything simulated.
    """
    reports = load_reports(paths_a), load_reports(paths_b)
    same_seed = len({r["env"]["seed"] for side in reports for r in side}) == 1
    violations = 0
    print(f"{'workload':16} {'metric':22} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in reports[0][0]["workloads"]:
        runs = [[r["workloads"].get(name, {}) for r in side] for side in reports]
        for metric, spec in END_TO_END.items():
            values = [
                [run.get("end_to_end", {}).get(metric) for run in side]
                for side in runs
            ]
            if None in values[0] + values[1]:
                print(f"{name:16} {metric:22} missing")
                violations += 1
                continue
            va, vb = (statistics.median(v) for v in values)
            worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            bad = worse > spec["bound"] or (
                same_seed and metric in SIMULATED
                and len(set(values[0] + values[1])) > 1
            )
            violations += bad
            print(f"{name:16} {metric:22} {va:12.6g} {vb:12.6g} "
                  f"{worse:+9.2%} {spec['bound']:6.0%}{'  VIOLATION' if bad else ''}")
        signatures = {s for side in runs for run in side
                      for s in run.get("signatures", [])}
        if same_seed and len(signatures) != 1:
            print(f"{name:16} signatures differ: {sorted(signatures)}  VIOLATION")
            violations += 1
    print(f"{violations} violation(s)")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds of "
                             "BENCHMARK.json; 0 with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition at a tenth of the size")
    parser.add_argument("--out", help="write every metric to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(SPEC["run_seconds"])
    if args.workload and args.trace is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
