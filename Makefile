# Convenience targets for the reproduction package.

.PHONY: install test bench bench-smoke bench-engine bench-pi e2e-smoke chaos scale shard overload coverage report observe examples loc census all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Quick benchmark smoke: the cheapest figure bench plus the engine
# throughput bench, hard-capped at 5 minutes (coreutils timeout; the
# container has no pytest-timeout plugin).
bench-smoke:
	timeout 300 pytest benchmarks -q -k "fig1_ or engine_throughput" --benchmark-only

# Engine throughput: records batch ms and U/ms per query (not gated),
# gates the grouping kernel's run fold against the bucketing fold it
# replaced on the same 120 k rows (a clustered GROUP BY >= 1.5x, a
# scattered one >= 0.8x, identical rows and work), checks the
# decorrelation pass actually fired on the paper query (plan shape, not
# just timing), and writes BENCH_engine.json.  Runs without
# --benchmark-only so the gate tests (plain assertions) execute.
bench-engine:
	timeout 300 pytest benchmarks/test_bench_engine_throughput.py -q

# PI refresh over engine jobs (the from-scratch path): records host ms
# per refresh at n = 100 / 1000 in BENCH_scale.json ("pi_refresh") and
# gates on counts -- job snapshots per refresh == population, tracker
# reads per refresh == engine-job population with no one-field tracker
# read, and no treap insert inside an empty-queue project().
bench-pi:
	pytest -m scale benchmarks/test_bench_pi_refresh.py --benchmark-only -q -s

# Smoke test of the end-to-end benchmark (BENCHMARK.json): a --quick
# --trace run prints exactly the declared metric names, traced and
# untraced signatures agree, a self-compare is clean.  `make bench`
# passes --benchmark-only, which skips it (it has no benchmark fixture).
e2e-smoke:
	pytest benchmarks/e2e -q

chaos:
	pytest -m chaos tests/

# Concurrency-scalability sweep (writes BENCH_scale.json).  Override the
# sizes for a quick run, e.g.:  make scale REPRO_SCALE_SIZES=100,500,1000
scale:
	REPRO_SCALE_SIZES=$(REPRO_SCALE_SIZES) pytest -m scale benchmarks/ --benchmark-only

# Sharded-cluster gate: chaos acceptance suite (crash -> failover ->
# byte-identical results) plus the refresh/recovery bench, which writes
# BENCH_shard.json.  Override the sweep for a quick run, e.g.:
#   make shard REPRO_SHARD_SIZES=2,4
shard:
	pytest -m chaos tests/dist/
	REPRO_SHARD_SIZES=$(REPRO_SHARD_SIZES) pytest -m shard benchmarks/ --benchmark-only

# Overload-protection gate: the seeded NodeCrash + ArrivalBurst storm
# acceptance suite, then the no-cliff bench (writes BENCH_overload.json).
# Override the load sweep for a quick run, e.g.:
#   make overload REPRO_OVERLOAD_LOADS=1,5
overload:
	pytest -m overload tests/
	REPRO_OVERLOAD_LOADS=$(REPRO_OVERLOAD_LOADS) pytest -m overload benchmarks/

# Line-coverage gate over the core PI algorithms (requires pytest-cov,
# installed via `pip install -e .[test]`; CI enforces this).
coverage:
	pytest tests/ --cov=repro.core --cov-report=term-missing --cov-fail-under=90

report:
	python -m repro report --out REPORT.md

# Observed seeded MCQ: accuracy summary + JSONL trace + metrics merge,
# then schema-check the trace (see docs/OBSERVABILITY.md).
observe:
	python -m repro report --observe --trace trace.jsonl --metrics-json BENCH_obs.json
	python -m repro report --validate-trace trace.jsonl

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

# Traffic census: runs the e2e workloads, every example, every bench (the
# non-figure ones at their make targets' quick sizes) and the CLI commands
# under a profiling hook; prints each public name with the sources that
# reach it, the unreached functions per module with their line counts,
# and each setting with the values each kind of source passes.  Fails on
# a public name or function no source reaches, or on a setting that the
# e2e, bench and CLI sources all pass one value, unless
# benchmarks/traffic_census.py's KEEP / KEEP_KNOBS gives a reason.
census:
	python benchmarks/traffic_census.py

# Non-blank Python line counts of src/ and of tests/ + benchmarks/ (the
# net line count ROADMAP tracks).
loc:
	@printf 'src               %s\n' "$$(find src -name '*.py' -exec cat {} + | grep -cv '^[[:space:]]*$$')"
	@printf 'tests+benchmarks  %s\n' "$$(find tests benchmarks -name '*.py' -exec cat {} + | grep -cv '^[[:space:]]*$$')"

all: test bench examples
