"""Traffic census: which public names and functions do the workloads,
examples, benches and CLI actually reach, and which values do they pass
to its settings?

The standing rule "a feature stays only while measured traffic reaches
it" needs a count.  This script runs every traffic source below in its
own subprocess under a profiling hook, collects the code each one calls
under ``src/repro/``, and prints every public name (``repro.__all__`` and
the subpackages' ``__all__``) with the sources that reach it, then every
named function under ``src/repro`` that no source reaches, per module,
with its non-blank line count.  It exits non-zero when a public name or
a function is reached by no source and no :data:`KEEP` key covers it, or
when a :data:`KEEP` key covers nothing unreached.  The function census
sees whole functions only: a reached function whose branches no source
takes (an unused ``if`` arm, an error path inside live code) counts as
reached.

The same hook records the values passed to the *configuration surface*:
every defaulted constructor parameter of a public non-dataclass class,
and every field of a public dataclass whose name ends in ``Config`` or
``Policy`` (``repro.experiments`` and ``repro.cli`` are the paper's
experiment set-ups and the user-facing flags, and are left out).  A
setting that the e2e runs, the benches and the CLI all pass one value
is a constant, not an option: the script exits non-zero for each such
setting missing from :data:`KEEP_KNOBS`.  Examples count as sources for
names but not for settings -- an example shows an option off, it does
not make the option needed.  A collaborator (any value that is not a
scalar, an enum member or a short tuple of scalars, or a parameter named
in :data:`WIRING`) is wiring, not a setting; a config object that the
callee builds when it is passed ``None`` is counted by its own fields.

Run from the repository root::

    python benchmarks/traffic_census.py          # or: make census

What counts as "reached":

* a function, when its code runs (``functools.wraps`` / ``@contextmanager``
  wrappers are unwrapped first);
* a class, when code defined in its body -- or in a subclass's -- runs.
  A dataclass ``__init__`` and a ``NamedTuple`` ``__new__`` are compiled
  from ``<string>``, so the hook attributes those calls to ``type(self)``
  and to ``_cls`` respectively;
* an alias (a public name for an object whose ``__name__`` differs), when
  code outside a ``src/repro`` module body loads that name: the object's
  own traffic belongs to its real name.

Exception classes (error paths) and plain constants carry no traffic of
their own and are not counted.

Two things make a naive census wrong.  pytest-benchmark switches the
profiler off while it times, so the benches run with
``--benchmark-disable`` (and a bench whose own timing gate fails under
the profiler is reported, not fatal: its code ran).  And some code is reached by exactly one source
(``decorrelate_statement`` only by the traced e2e run; the seeded random
fault plan only by ``shard --seed``), so skipping a source deletes live
code.  The hook keys calls by ``(co_filename, co_firstlineno)``, which
Python 3.10 has (it lacks ``co_qualname``), and the census names each
key by compiling the sources.  The benches rewrite the ``BENCH_*.json``
files at the repository root, at the quick sizes the census runs them
with; the census puts the committed files back when it is done.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Code that no source reaches but that stays: reason -> the keys it
#: covers.  A key is ``module:qualname`` (``<locals>`` left out); a class
#: key covers its methods and a function key covers its nested closures.
#: The same table answers for unreached public names.
KEEP = {
    "SQL grammar that the sqlite3 differential and fuzz suites pin and no "
    "workload runs (CASE, LIKE, BETWEEN, IN, EXISTS, NOT, unary minus, "
    "'||', '%', the AND/OR closures, the nine scalar functions, outer "
    "references two scopes up, DISTINCT aggregates and MIN/MAX over "
    "non-integer columns, nested-loop joins, DISTINCT, FROM-less SELECT); "
    "the next ROADMAP item 7 slice decides it": (
        "repro.engine.expr:Env.ancestor",
        "repro.engine.expr:_bind_binary._and",
        "repro.engine.expr:_bind_binary._concat",
        "repro.engine.expr:_bind_binary._or",
        "repro.engine.expr:_bind_binary.apply",
        "repro.engine.expr:_bind_subquery._exists",
        "repro.engine.expr:_bind_subquery._in_subquery",
        "repro.engine.expr:_bind_subquery._scan",
        "repro.engine.expr:_build_in_probe",
        "repro.engine.expr:_fn_abs",
        "repro.engine.expr:_fn_ceil",
        "repro.engine.expr:_fn_coalesce",
        "repro.engine.expr:_fn_floor",
        "repro.engine.expr:_fn_length",
        "repro.engine.expr:_fn_lower",
        "repro.engine.expr:_fn_nullif",
        "repro.engine.expr:_fn_round",
        "repro.engine.expr:_fn_upper",
        "repro.engine.expr:_like_to_regex",
        "repro.engine.expr:_require_bool",
        "repro.engine.expr:_subset",
        "repro.engine.expr:_value_family",
        "repro.engine.expr:bind_expr._between",
        "repro.engine.expr:bind_expr._call",
        "repro.engine.expr:bind_expr._case",
        "repro.engine.expr:bind_expr._in",
        "repro.engine.expr:bind_expr._like",
        "repro.engine.expr:bind_expr._neg",
        "repro.engine.expr:bind_expr._not",
        "repro.engine.expr:bind_expr._outer_col",
        "repro.engine.sql.parser:_Parser._case",
        "repro.engine.operators.joins:NestedLoopJoin",
        "repro.engine.operators.transforms:Distinct",
        "repro.engine.operators.transforms:Materialize",
        "repro.engine.operators.transforms:SingleRow",
        "repro.engine.cost:materialize",
        "repro.engine.cost:nested_loop_join",
        "repro.engine.operators.agg:_AggState.update",
    ),
    "the uncorrelated-subquery (InitPlan) runner; ROADMAP item 4 decides "
    "it, where the strict xfail test_restore_does_not_recharge_the_initplan "
    "lives": (
        "repro.engine.planner:Planner.plan_select.compile_subquery.runner",
    ),
    "range scans: the planner prices them on `cli shard` traffic "
    "(cost.index_range is reached) and always rejects them; ROADMAP item 2 "
    "decides them": (
        "repro.engine.operators.scans:RangeIndexScan",
        "repro.engine.index:BTreeIndex.search_range",
        "repro.engine.index:BTreeIndex._keys",
        "repro.engine.index:BTreeIndex.min_key",
        "repro.engine.index:BTreeIndex.max_key",
    ),
    "safety or platform code, never a target: checkpoint/restore of "
    "operators no crash lands in, error paths, abstract bodies every "
    "subclass overrides and the Python >= 3.12 _chain_sum branch": (
        "repro.engine.operators.base:Operator.batches",
        "repro.engine.operators.base:Operator.checkpoint",
        "repro.engine.operators.base:Operator.describe",
        "repro.engine.operators.base:Operator.restore",
        "repro.engine.operators.agg:HashAggregate.checkpoint",
        "repro.engine.operators.agg:HashAggregate.restore",
        "repro.engine.operators.agg:_chain_sum",
        "repro.engine.operators.sort:Sort.checkpoint",
        "repro.engine.operators.sort:Sort.restore",
        "repro.engine.operators.transforms:Limit.checkpoint",
        "repro.engine.operators.transforms:Limit.restore",
        "repro.engine.errors:ParseError.__init__",
        "repro.engine.sql.parser:_Parser._describe",
        "repro.dist.router:ShardedCluster._give_up",
        "repro.dist.partition:Partitioner.assign",
        "repro.dist.partition:Partitioner.describe",
        "repro.sim.jobs:Job.advance",
        "repro.sim.jobs:Job.completed_work",
        "repro.sim.jobs:Job.estimated_remaining_cost",
        "repro.sim.jobs:Job.finished",
        "repro.sim.scheduler:SpeedModel.speeds",
    ),
    "§2.3-§2.4 public form; MultiQueryProgressIndicator calls "
    "project_validated": (
        "repro.core.projection:project",
        "repro.core.projection:ProjectedQuery",
    ),
    "§3.1 O(n) equal-priority case": (
        "repro.wm.speedup:choose_victim_equal_priority",
    ),
    "§3.3 drain time": ("repro.wm.maintenance:quiescent_time",),
    "order_preserving picks gather over pushdown; ROADMAP item 3 merges "
    "the two strategies": (
        "repro.dist.partition:HashPartitioner",
        "repro.dist.partition:RangePartitioner",
    ),
    "no source ever opens a breaker: ROADMAP item 5(b)": (
        "repro.qos.breaker:BreakerTransition",
        "repro.qos.breaker:BreakerBoard.open_nodes",
        "repro.qos.breaker:CircuitBreaker._open",
        "repro.qos.breaker:CircuitBreaker._transition",
        "repro.qos.breaker:CircuitBreaker.consecutive_failures",
        "repro.qos.breaker:CircuitBreaker.retry_after",
    ),
    "only examples drive the runaway watchdog and the retry controller; "
    "a later ROADMAP item 7 slice decides whether they stay": (
        "repro.wm.watchdog:RunawayQueryWatchdog",
        "repro.faults.retry:RetryController",
    ),
    "unused halves of live classes and helpers that only tests call; a "
    "later ROADMAP item 7 slice drives or deletes them": (
        "repro.core.forecast:WorkloadForecast.scaled",
        "repro.core.incremental:IncrementalSchedule._repull",
        "repro.core.incremental:IncrementalSchedule.rebase",
        "repro.core.incremental:IncrementalSchedule.reweight",
        "repro.core.metrics:uniform_grid",
        "repro.core.model:QuerySnapshot.with_remaining",
        "repro.core.model:SystemSnapshot.of",
        "repro.core.model:SystemSnapshot.speed_of",
        "repro.core.model:SystemSnapshot.without",
        "repro.core.standard_case:remaining_time_of",
        "repro.dist.catalog:ShardCatalog.add_index",
        "repro.dist.catalog:ShardCatalog.mark_up",
        "repro.dist.catalog:ShardCatalog.primary_for",
        "repro.dist.chaos:ClusterFaultInjector._arm_burst",
        "repro.dist.chaos:ClusterFaultInjector._arm_one.recover",
        "repro.dist.global_pi:GlobalProgressAggregator.forget",
        "repro.dist.node:ShardNode.recover",
        "repro.experiments.engine_mode:make_job.prepare",
        "repro.experiments.harness:PIHarness.sample_now",
        "repro.experiments.harness:actual_remaining_series",
        "repro.experiments.harness:estimate_series",
        "repro.faults.injector:FaultInjector._arm_corruption.end",
        "repro.faults.injector:FaultInjector._arm_crash.crash",
        "repro.obs.tracer:JsonlSink.__enter__",
        "repro.obs.tracer:JsonlSink.__exit__",
        "repro.obs.tracer:Tracer.span",
        "repro.qos.admission:AdmissionController.resubmit",
        "repro.qos.ladder:DegradationLadder.shed",
        "repro.qos.ladder:DegradationLadder.shed_candidates",
        "repro.sim.jobs:CostNoiseJob.retry_copy",
        "repro.sim.jobs:Job.retry_copy",
        "repro.sim.rdbms:SimulatedRDBMS._submit_internal",
        "repro.sim.rdbms:SimulatedRDBMS.clear_estimate_corruption",
        "repro.sim.rdbms:SimulatedRDBMS.set_deadline",
        "repro.sim.rdbms:SimulatedRDBMS.unblock",
        "repro.wm.oracle:_best_keep_set_dp",
        "repro.wm.overhead:constant_overhead",
    ),
    "accessors and reporting helpers that only tests read": (
        "repro.core.forecast:AdaptiveForecaster.prior",
        "repro.core.forecast:WorkloadForecast.mean_interarrival",
        "repro.core.incremental:IncrementalSchedule.__contains__",
        "repro.core.incremental:IncrementalSchedule.__repr__",
        "repro.core.incremental:IncrementalSchedule.processing_rate",
        "repro.core.incremental:IncrementalSchedule.query_ids",
        "repro.core.incremental:IncrementalSchedule.remaining_cost_of",
        "repro.core.incremental:IncrementalSchedule.time",
        "repro.core.incremental:IncrementalSchedule.virtual_time",
        "repro.core.incremental:IncrementalSchedule.weight_of",
        "repro.core.metrics:StepSeries.last_time",
        "repro.core.metrics:StepSeries.times",
        "repro.core.metrics:StepSeries.values",
        "repro.core.model:SystemSnapshot.total_weight",
        "repro.core.multi_query:MultiQueryProgressIndicator.consider_queue",
        "repro.core.multi_query:MultiQueryProgressIndicator.estimate_for",
        "repro.core.projection:ProjectionResult.queries",
        "repro.core.projection:ProjectionResult.remaining_time",
        "repro.core.projection:ProjectionResult.remaining_times",
        "repro.core.single_query:SingleQueryProgressIndicator.last_estimate",
        "repro.core.standard_case:Stage.work_done",
        "repro.dist.catalog:ShardCatalog.describe",
        "repro.dist.catalog:ShardCatalog.node_ids",
        "repro.dist.catalog:ShardCatalog.serving_nodes",
        "repro.dist.catalog:TableMeta.n_shards",
        "repro.dist.global_pi:GlobalProgressAggregator.query_ids",
        "repro.dist.global_pi:GlobalQueryEstimate.slowest_shard",
        "repro.dist.global_pi:GlobalQueryEstimate.staleness",
        "repro.dist.node:ShardNode.__repr__",
        "repro.dist.node:ShardNode.brownout_factor",
        "repro.dist.node:ShardNode.clock",
        "repro.dist.node:ShardNode.quiescent",
        "repro.dist.partition:BlockPartitioner.describe",
        "repro.dist.router:ShardedCluster.describe",
        "repro.engine.catalog:Catalog.has_table",
        "repro.engine.executor:ExecutionCheckpoint.__eq__",
        "repro.engine.executor:ExecutionCheckpoint.rows",
        "repro.engine.executor:QueryExecution.column_names",
        "repro.engine.index:BTreeIndex.entry_count",
        "repro.engine.operators.scans:IndexScan.describe",
        "repro.engine.progress:ProgressTracker.work_done",
        "repro.engine.schema:TableSchema.column",
        "repro.engine.stats:Selectivity.distinct",
        "repro.engine.vector:Chunk.__getitem__",
        "repro.experiments.maintenance:MaintenanceSweepResult.curve",
        "repro.experiments.naq:NAQResult.error_at",
        "repro.faults.injector:FaultInjector.armed",
        "repro.faults.injector:FaultInjector.plan",
        "repro.faults.plan:FaultPlan.__len__",
        "repro.faults.plan:FaultPlan.for_node",
        "repro.faults.plan:FaultPlan.for_query",
        "repro.obs.accuracy:AccuracyReport.for_query",
        "repro.obs.accuracy:AccuracyTracker.tracked_queries",
        "repro.obs.metrics:Histogram.mean",
        "repro.obs.metrics:MetricsRegistry.names",
        "repro.obs.tracer:Tracer.events",
        "repro.qos.admission:AdmissionController.pressure",
        "repro.qos.ladder:DegradationLadder.parked",
        "repro.qos.ladder:DegradationLadder.rung",
        "repro.qos.ladder:DegradationLadder.rung_name",
        "repro.sim.arrivals:ArrivalSchedule.__iter__",
        "repro.sim.arrivals:ArrivalSchedule.__len__",
        "repro.sim.jobs:CostNoiseJob.inner",
        "repro.sim.jobs:Job.__repr__",
        "repro.sim.rdbms:QueryRecord.query_id",
        "repro.sim.rdbms:SamplerHandle.interval",
        "repro.sim.rdbms:SimulatedRDBMS.blocked",
        "repro.sim.rdbms:SimulatedRDBMS.estimate_corruption",
        "repro.sim.rdbms:SimulatedRDBMS.quiescent",
        "repro.sim.scheduler:NoisyFairSharing.factors",
        "repro.sim.scheduler:ScaledSpeedModel.base",
        "repro.sim.scheduler:ScaledSpeedModel.query_factor",
        "repro.sim.scheduler:ScaledSpeedModel.rate_factor",
        "repro.sim.trace:QueryTrace.actual_remaining",
        "repro.sim.trace:QueryTrace.queue_wait",
        "repro.sim.trace:QueryTrace.response_time",
        "repro.sim.trace:TraceSet.__contains__",
        "repro.sim.trace:TraceSet.finished_queries",
        "repro.sim.trace:TraceSet.last_finishing",
    ),
}
_KEEP_KEYS = {key: reason for reason, keys in KEEP.items() for key in keys}

#: Settings that take one value from every e2e, bench and CLI source but
#: stay settable, each with its reason.
KEEP_KNOBS = {
    # benchmarks/e2e passes these by name; the directory is frozen.
    "SimulatedRDBMS.quantum": "benchmarks/e2e passes it by name",
    "ShardedCluster.replication": "benchmarks/e2e passes it by name",
    # Engine layout axes that the differential suites sweep (batch widths
    # 1, 7 and 1024).
    "Database.batch_size": "engine layout axis the differential suites "
                           "sweep",
    "QueryExecution.batch_size": "engine layout axis the differential "
                                 "suites sweep",
    # Per-query data, not configuration: Job.weight and Job.deadline vary.
    "EngineJob.weight": "per-query data, as Job.weight (varied)",
    "EngineJob.deadline": "per-query data, as Job.deadline (varied)",
    # Only examples drive these classes; whether they stay at all is a
    # feature question, not a setting question.
    "RunawayQueryWatchdog.budget_seconds": "only examples drive the watchdog",
    "RunawayQueryWatchdog.check_interval": "only examples drive the watchdog",
    "RunawayQueryWatchdog.enforce_deadlines": "only examples drive the "
                                              "watchdog",
    "RetryPolicy.max_attempts": "the cluster and RetryController set it "
                                "differently",
    "RetryPolicy.base_delay": "the cluster and RetryController set it "
                              "differently",
}

#: Parameter names that inject a collaborator even when every source
#: leaves them at their ``None`` default.
WIRING = frozenset({
    "obs", "tracer", "metrics", "accuracy", "sink", "wall_clock", "seed",
    "speed_model", "forecaster", "forecast", "pi", "policy", "config",
    "admission", "job_factory", "prepare",
})

_E2E = [sys.executable, "benchmarks/e2e/run.py"]
_CLI = [sys.executable, "-m", "repro"]
_PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--benchmark-disable"]
_BENCHES = sorted(
    str(p.relative_to(ROOT)) for pattern in (
        "test_bench_fig*.py", "test_bench_table1*.py",
        "test_bench_ablation_*.py",
    ) for p in (ROOT / "benchmarks").glob(pattern)
)
#: The other benches, each with the marker and quick sizes of its make
#: target (``make overload``, ``make shard``, ``make scale`` ...).
_OTHER_BENCHES = [
    ("overload", "test_bench_overload.py", {"REPRO_OVERLOAD_LOADS": "1,5"}),
    ("shard", "test_bench_shard.py", {"REPRO_SHARD_SIZES": "2,4"}),
    (None, "test_bench_engine_throughput.py", {}),
    (None, "test_bench_engine_mode.py", {}),
    (None, "test_bench_engine_maintenance.py", {}),
    ("scale", "test_bench_pi_refresh.py", {}),
    ("scale", "test_bench_scale_concurrency.py",
     {"REPRO_SCALE_SIZES": "100,500,1000"}),
    (None, "test_bench_complexity.py", {}),
    ("scale", "test_bench_obs_overhead.py", {}),
]


def sources(tmp: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """Every traffic source as ``(label, argv, env)``, run from the repo root.

    A label starts with the source's kind: ``e2e``, ``example``,
    ``bench`` or ``cli``.
    """
    trace = str(tmp / "trace.jsonl")
    out = [
        ("e2e --quick", _E2E + ["--quick"]),
        ("e2e --seconds 0", _E2E + ["--seconds", "0"]),
        ("e2e --quick --trace", _E2E + ["--quick", "--trace"]),
    ]
    out += [
        (f"example {p.stem}", [sys.executable, str(p.relative_to(ROOT))])
        for p in sorted((ROOT / "examples").glob("*.py"))
    ]
    out.append(("bench figures", _PYTEST + _BENCHES))
    benches = [
        (f"bench {name[len('test_bench_'):-len('.py')]}",
         _PYTEST + (["-m", marker] if marker else [])
         + [f"benchmarks/{name}"], env)
        for marker, name, env in _OTHER_BENCHES
    ]
    out += [
        ("cli sql", _CLI + ["sql", "SELECT count(*) FROM lineitem"]),
        ("cli sql --explain", _CLI + ["sql", "SELECT count(*) FROM lineitem",
                                      "--explain"]),
        *[
            (f"cli experiment {name}",
             _CLI + ["experiment", name, "--runs", "2"])
            for name in ("mcq", "naq", "scq", "lambda", "adaptive",
                         "maintenance", "table1")
        ],
        ("cli experiment table1 --csv",
         _CLI + ["experiment", "table1", "--csv", str(tmp / "table1.csv")]),
        ("cli report", _CLI + ["report", "--runs", "2",
                               "--out", str(tmp / "REPORT.md")]),
        ("cli report --observe", _CLI + ["report", "--observe",
                                         "--trace", trace]),
        ("cli report --observe --metrics-json",
         _CLI + ["report", "--observe", "--metrics-json",
                 str(tmp / "BENCH_obs.json")]),
        ("cli report --validate-trace",
         _CLI + ["report", "--validate-trace", trace]),
        ("cli shard", _CLI + ["shard"]),
        ("cli shard --no-fault", _CLI + ["shard", "--no-fault",
                                         "--shards", "3"]),
        *[
            (f"cli shard --seed {seed}", _CLI + ["shard", "--seed", seed])
            for seed in ("1", "2", "3")
        ],
        ("cli overload", _CLI + ["overload"]),
        ("cli overload --unprotected", _CLI + ["overload", "--unprotected"]),
    ]
    return [(label, argv, {}) for label, argv in out] + benches


# The hook is written as sitecustomize.py into one directory per source
# and put first on PYTHONPATH, so every Python process the source starts
# (run.py starts one per workload) loads it and leaves one pickle per PID
# next to itself.  _SETTINGS maps a scoped constructor's code key, and a
# scoped dataclass's (module, qualname), to the parameter names recorded.
_HOOK = '''
import atexit, enum, os, pickle, sys, threading

_PACKAGE = {package!r}
_ROOT = {root!r}
_OUT = os.path.dirname(os.path.abspath(__file__))
_FUNCTION = {function_flag!r}
_SETTINGS = {settings!r}
_MAX_VALUES = 3
_seen_codes = set()
_keep = []  # the code objects behind _seen_codes, so their ids stay unique
_scoped = {{}}  # id(code) -> (settings key, parameter names)
_calls = set()
_classes = set()
_names = set()
_values = {{}}  # (settings key, parameter) -> distinct value labels


def _label(value, depth=0):
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return type(value).__name__ + "." + value.name
    if isinstance(value, tuple) and len(value) <= 16 and depth < 2:
        parts = [_label(v, depth + 1) for v in value]
        if not any(p.startswith("obj:") for p in parts):
            return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return "obj:" + type(value).__name__


def _record(key, params, f_locals):
    for name in params:
        seen = _values.setdefault((key, name), set())
        if len(seen) < _MAX_VALUES and name in f_locals:
            seen.add(_label(f_locals[name]))


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code.co_filename == "<string>":
        if code.co_name == "__init__":
            owner = type(frame.f_locals.get("self"))
        elif code.co_name in ("<lambda>", "__new__"):
            owner = frame.f_locals.get("_cls")
        else:
            return
        if isinstance(owner, type):
            key = (owner.__module__, owner.__qualname__)
            _classes.add(key)
            params = _SETTINGS.get(key)
            if params is not None and code.co_name == "__init__":
                _record(key, params, frame.f_locals)
        return
    key = id(code)
    scoped = _scoped.get(key)
    if scoped is not None:
        _record(scoped[0], scoped[1], frame.f_locals)
    if key in _seen_codes:
        return
    _seen_codes.add(key)
    _keep.append(code)
    filename = code.co_filename
    if filename.startswith(_PACKAGE):
        if code.co_name == "<module>":
            return
        if code.co_flags & _FUNCTION and not code.co_name.startswith("<"):
            site = (filename, code.co_firstlineno)
            _calls.add(site)
            params = _SETTINGS.get(site)
            if params is not None:
                _scoped[key] = (site, params)
                _record(site, params, frame.f_locals)
    elif not filename.startswith(_ROOT):
        return
    _names.update(code.co_names)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    path = os.path.join(_OUT, "pid-%d.pickle" % os.getpid())
    with open(path, "wb") as fh:
        pickle.dump((_calls, _classes, _names, _values), fh)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def run_source(label: str, argv: list[str], extra_env: dict[str, str],
               hook_dir: Path, settings: dict) -> tuple:
    """Run one source under the hook; return its merged record."""
    hook_dir.mkdir(parents=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(package=str(PACKAGE) + os.sep, root=str(ROOT) + os.sep,
                     function_flag=inspect.CO_NEWLOCALS, settings=settings)
    )
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith("FAILED")]
    if proc.returncode == 1 and _kind(label) == "bench" and failed:
        # A bench's timing gate can fail under the profiler; its code
        # still ran, and lost traffic would show as an unreached name.
        print(f"  {label}: {len(failed)} bench assertion(s) failed under "
              f"the profiler; traffic kept", file=sys.stderr)
        for line in failed:
            print(f"    {line}", file=sys.stderr)
    elif proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"census source failed: {label} (exit "
                         f"{proc.returncode})")
    calls, classes, names, values = set(), set(), set(), {}
    for path in hook_dir.glob("pid-*.pickle"):
        with open(path, "rb") as fh:
            c, k, n, v = pickle.load(fh)
        calls |= c
        classes |= k
        names |= n
        for setting, seen in v.items():
            values.setdefault(setting, set()).update(seen)
    print(f"  {label:32} {time.perf_counter() - started:6.1f} s  "
          f"{len(calls):5d} functions", file=sys.stderr)
    return calls, classes, names, values


def public_names() -> dict[str, object]:
    """``repro.__all__`` plus every subpackage's ``__all__``, name -> object."""
    import repro

    modules = ["repro"] + [
        f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
        if m.ispkg
    ]
    names: dict[str, object] = {}
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            names.setdefault(name, getattr(module, name))
    return names


def _code_key(fn) -> tuple[str, int] | None:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno)


def _class_keys(cls: type) -> set[tuple[str, int]]:
    """Call keys of the code defined in *cls*'s own body."""
    keys = set()
    for attr in vars(cls).values():
        if isinstance(attr, property):
            parts = (attr.fget, attr.fset, attr.fdel)
        elif isinstance(attr, (staticmethod, classmethod)):
            parts = (attr.__func__,)
        else:
            parts = (attr,)
        for part in parts:
            if inspect.isfunction(part) and part.__code__.co_filename != "<string>":
                keys.add(_code_key(part))
    return keys


def _family(cls: type) -> list[type]:
    """*cls* and its subclasses defined under ``src/repro``."""
    out, stack = [], [cls]
    while stack:
        c = stack.pop()
        if c not in out:
            out.append(c)
            stack.extend(c.__subclasses__())
    return [c for c in out if c.__module__.split(".")[0] == "repro"]


def reached_by(name: str, obj, record: tuple) -> bool | None:
    """Whether one source's *record* reaches public *name* (None: not counted)."""
    calls, classes, names, _ = record
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return None
    if getattr(obj, "__name__", name) != name:
        return name in names
    if inspect.isclass(obj):
        return any(
            (c.__module__, c.__qualname__) in classes
            or not _class_keys(c).isdisjoint(calls)
            for c in _family(obj)
        )
    if callable(obj):
        return _code_key(obj) in calls
    return None


def settings_surface(public: dict[str, object]) -> dict[str, tuple]:
    """The configuration surface, ``"Class.param"`` -> ``(key, param)``.

    *key* is a constructor's code key, or a dataclass's ``(module,
    qualname)`` since its ``__init__`` is compiled from ``<string>``.
    """
    surface: dict[str, tuple] = {}
    for obj in public.values():
        if (
            not inspect.isclass(obj)
            or issubclass(obj, BaseException)
            or obj.__module__.startswith(("repro.experiments", "repro.cli"))
        ):
            continue
        if dataclasses.is_dataclass(obj):
            if not obj.__name__.endswith(("Config", "Policy")):
                continue
            key = (obj.__module__, obj.__qualname__)
            params = [f.name for f in dataclasses.fields(obj) if f.init]
        else:
            init = obj.__init__
            if not (inspect.isfunction(init)
                    and init.__code__.co_filename.startswith(str(PACKAGE))):
                continue
            key = _code_key(init)
            params = [
                p.name for p in inspect.signature(init).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
        for param in params:
            surface[f"{obj.__name__}.{param}"] = (key, param)
    return surface


def _kind(label: str) -> str:
    return label.split()[0]


def _values(seen: set[str], shown: int = 3) -> str:
    """Up to *shown* value labels, each cut to 24 characters."""
    first = sorted(seen)[:shown]
    more = f", +{len(seen) - shown}" if len(seen) > shown else ""
    return "{" + ", ".join(v[:24] for v in first) + more + "}"


def knob_census(surface: dict[str, tuple], records: dict) -> int:
    """Print every setting's values per source kind; count the failures."""
    kinds = ("e2e", "bench", "cli", "example")
    tally = {"varied": 0, "wiring": 0, "KEEP": 0, "ONE VALUE": 0}
    failures = 0
    print(f"{len(surface)} settable values on the configuration surface")
    for name, (key, param) in sorted(surface.items(),
                                     key=lambda kv: kv[0].lower()):
        by_kind = {kind: set() for kind in kinds}
        for label, record in records.items():
            by_kind[_kind(label)] |= record[3].get((key, param), set())
        served = by_kind["e2e"] | by_kind["bench"] | by_kind["cli"]
        if param in WIRING or any(
            v.startswith("obj:") for seen in by_kind.values() for v in seen
        ):
            verdict = "wiring"
        elif len(served) >= 2:
            verdict = "varied"
        elif name in KEEP_KNOBS:
            verdict = "KEEP"
        else:
            verdict = "ONE VALUE"
            failures += 1
        tally[verdict] += 1
        shown = "  ".join(
            f"{kind}={_values(seen)}" for kind, seen in by_kind.items() if seen
        )
        reason = f"  ({KEEP_KNOBS[name]})" if verdict == "KEEP" else ""
        print(f"{name:44} {verdict:9} {shown or '(never built)'}{reason}")
    for name in sorted(set(KEEP_KNOBS) - set(surface)):
        print(f"{name:44} KEEP_KNOBS names no setting")
        failures += 1
    print(", ".join(f"{n} {verdict}" for verdict, n in tally.items()))
    print(f"{failures} single-valued setting(s) outside KEEP_KNOBS")
    return failures


def _named_codes(code, prefix: str = ""):
    """``(qualname, code)`` of every class body and function in *code*.

    The qualname is Python's ``__qualname__`` without ``<locals>`` (built
    here because Python 3.10 code objects lack ``co_qualname``).
    """
    for const in code.co_consts:
        if inspect.iscode(const):
            name = prefix + const.co_name
            if not const.co_name.startswith("<"):
                yield name, const
            yield from _named_codes(const, name + ".")


def _last_line(code) -> int:
    """The last source line of *code* and of the code nested in it."""
    last = max((line for _, _, line in code.co_lines() if line),
               default=code.co_firstlineno)
    return max([last] + [_last_line(c) for c in code.co_consts
                         if inspect.iscode(c)])


def function_table() -> tuple[dict, set[str]]:
    """Every named function under ``src/repro`` and every defined name.

    Returns ``{call key: (module:qualname, its non-blank line numbers)}``
    (a function's lines include its nested closures') and the set of
    ``module:qualname`` of every class and function.
    """
    functions, defined = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for qualname, code in _named_codes(compile(text, str(path), "exec")):
            defined.add(f"{module}:{qualname}")
            if not code.co_flags & inspect.CO_NEWLOCALS:
                continue  # a class body
            span = range(code.co_firstlineno, _last_line(code) + 1)
            functions[(code.co_filename, code.co_firstlineno)] = (
                f"{module}:{qualname}",
                {n for n in span if lines[n - 1].strip()},
            )
    return functions, defined


def _kept(qualname: str) -> str | None:
    """The KEEP key covering *qualname*, if any."""
    for key in _KEEP_KEYS:
        if qualname == key or qualname.startswith(key + "."):
            return key
    return None


def function_census(records: dict, used: set[str]) -> int:
    """Print the unreached functions per module; count the failures.

    A failure is an unreached function that no KEEP key covers, or a KEEP
    key that covers neither an unreached function nor an unreached public
    name (those keys are passed in *used*).
    """
    functions, defined = function_table()
    calls = set().union(*(r[0] for r in records.values()))
    unreached = sorted(
        (name, lines) for key, (name, lines) in functions.items()
        if key not in calls
    )
    reached = len(functions) - len(unreached)
    union = {(name.split(":")[0], n) for name, lines in unreached
             for n in lines}
    engine = sum(1 for module, _ in union
                 if module.startswith("repro.engine"))
    print(f"{reached} of {len(functions)} functions under src/repro "
          f"reached; {len(unreached)} unreached hold {len(union)} non-blank "
          f"lines ({engine} under engine/)")
    failures = 0
    by_module: dict[str, list] = {}
    for name, lines in unreached:
        by_module.setdefault(name.split(":")[0], []).append((name, lines))
    for module, entries in sorted(by_module.items()):
        print(f"{module}  ({len(entries)} unreached)")
        for name, lines in entries:
            key = _kept(name)
            if key is None:
                failures += 1
            else:
                used.add(key)
            print(f"    {name.split(':')[1]:52} {len(lines):4d}  "
                  f"{'kept' if key else 'UNREACHED'}")
    for key in sorted(set(_KEEP_KEYS) - used):
        if not any(q == key or q.startswith(key + ".") for q in defined):
            print(f"{key}: KEEP names no function or class")
        else:
            print(f"{key}: KEEP covers no unreached function")
        failures += 1
    print(f"{failures} unreached function(s) outside KEEP or stale KEEP "
          f"key(s)")
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    public = public_names()
    surface = settings_surface(public)
    settings: dict[tuple, tuple[str, ...]] = {}
    for key, param in surface.values():
        settings[key] = settings.get(key, ()) + (param,)
    committed = {p: p.read_bytes() for p in ROOT.glob("BENCH_*.json")}
    started = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory(prefix="census-") as tmp:
            tmp = Path(tmp)
            plan = sources(tmp)
            print(f"running {len(plan)} sources", file=sys.stderr)
            records = {
                label: run_source(label, cmd, env, tmp / f"hook-{i}",
                                  settings)
                for i, (label, cmd, env) in enumerate(plan)
            }
    finally:
        for path in set(ROOT.glob("BENCH_*.json")) - set(committed):
            path.unlink()
        for path, data in committed.items():
            path.write_bytes(data)
    print(f"census wall time {time.perf_counter() - started:.0f} s",
          file=sys.stderr)
    failures, used = 0, set()
    for name, obj in sorted(public.items(), key=lambda kv: kv[0].lower()):
        verdicts = {label: reached_by(name, obj, record)
                    for label, record in records.items()}
        if None in verdicts.values():
            print(f"{name:34} (not counted)")
            continue
        hits = [label for label, hit in verdicts.items() if hit]
        key = _kept(f"{obj.__module__}:{obj.__qualname__}")
        if hits:
            print(f"{name:34} {len(hits):2d}  {', '.join(hits)}")
        elif key is not None:
            used.add(key)
            print(f"{name:34}  0  KEEP: {_KEEP_KEYS[key]}")
        else:
            print(f"{name:34}  0  UNREACHED")
            failures += 1
    print(f"{failures} unreached public name(s) outside KEEP")
    failures += function_census(records, used)
    failures += knob_census(surface, records)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
