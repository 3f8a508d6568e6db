"""Seeded determinism, and the projection against its oracle, end to end.

Each experiment runs under two projections: ``"incremental"``, the
production engine, and ``"reference"``, the step-by-step oracle of
``tests/core/reference_projection.py`` monkeypatched into
:mod:`repro.core.multi_query` so that every multi-query PI refresh of the
run goes through it.  Two guarantees:

* **Reproducibility**: the same MCQ / NAQ / SCQ configuration and seed
  produce *byte-identical* traces and estimate series on every rerun
  (the incremental schedule uses seeded treap priorities precisely so
  that identical op sequences yield identical floats).
* **Agreement**: the engine and the oracle produce the same estimate
  series to floating-point tolerance (bit-identity across different
  algorithms is not a meaningful ask; 1e-9 relative agreement is the
  contract the differential suite enforces).
"""

import math
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core.forecast import WorkloadForecast
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.experiments.harness import MULTI_QUERY
from repro.experiments.mcq import MCQConfig, run_mcq
from repro.experiments.naq import NAQConfig, run_naq
from repro.experiments.scq import SCQConfig, mean_arrival_cost, simulate_scq_run
from tests.core.reference_projection import reference_project

MCQ_CONFIG = MCQConfig(n_queries=6, max_size=40, sample_interval=2.0, seed=11)
SCQ_CONFIG = SCQConfig(n_initial=6, runs=1, seed=7)
SCQ_LAMBDA = 0.05

#: The production engine, then the oracle.
ENGINES = ("incremental", "reference")


@contextmanager
def projection_engine(name):
    """Route every multi-query PI refresh through *name*'s projection."""
    if name == "reference":
        with mock.patch(
            "repro.core.multi_query.project_validated", reference_project
        ):
            yield
    else:
        yield


def _canon_mcq(result) -> str:
    return repr(
        (
            result.focus_query,
            result.finish_time,
            result.actual,
            sorted((name, list(s)) for name, s in result.estimates.items()),
            result.speed,
            sorted(result.finish_times.items()),
        )
    )


def _canon_naq(result) -> str:
    return repr(
        (
            sorted((name, list(s)) for name, s in result.estimates.items()),
            result.q1_finish,
            result.q3_start,
            result.q3_finish,
        )
    )


def _canon_scq(run) -> str:
    estimate = MultiQueryProgressIndicator().estimate(run.snapshot0)
    return repr(
        (
            run.snapshot0,
            sorted(run.speeds0.items()),
            sorted(run.actual_finish.items()),
            run.initial_ids,
            run.arrival_times,
            sorted(estimate.remaining_seconds.items()),
        )
    )


EXPERIMENTS = {
    "mcq": lambda: _canon_mcq(run_mcq(MCQ_CONFIG)),
    "naq": lambda: _canon_naq(run_naq(NAQConfig())),
    "scq": lambda: _canon_scq(
        simulate_scq_run(SCQ_CONFIG, lam=SCQ_LAMBDA, seed=3)
    ),
}


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_same_seed_is_byte_identical(backend, experiment):
    runner = EXPERIMENTS[experiment]
    with projection_engine(backend):
        first = runner()
        second = runner()
    assert first == second, (
        f"{experiment} under the {backend!r} projection is not reproducible"
    )


def assert_series_agree(inc, ref):
    """Same series names, instants and lengths; values to 1e-9."""
    assert inc.keys() == ref.keys()
    for name in ref:
        assert len(inc[name]) == len(ref[name]), name
        for (t1, v1), (t2, v2) in zip(inc[name], ref[name]):
            assert t1 == t2
            assert math.isclose(v1, v2, rel_tol=1e-9, abs_tol=1e-6), (
                f"{name} at {t1}: incremental={v1!r} reference={v2!r}"
            )


def test_backends_agree_on_mcq_series():
    results = {}
    for backend in ENGINES:
        with projection_engine(backend):
            results[backend] = run_mcq(MCQ_CONFIG)
    inc, ref = results["incremental"], results["reference"]
    assert inc.focus_query == ref.focus_query
    # The simulation itself is projection-independent: identical timelines.
    assert inc.finish_time == ref.finish_time
    assert inc.finish_times == ref.finish_times
    assert_series_agree(
        {MULTI_QUERY: inc.estimates[MULTI_QUERY]},
        {MULTI_QUERY: ref.estimates[MULTI_QUERY]},
    )


def _naq_series():
    return run_naq(NAQConfig()).estimates


def _scq_series():
    """Time-0 estimates of the initial queries, without and with a forecast."""
    run = simulate_scq_run(SCQ_CONFIG, lam=SCQ_LAMBDA, seed=3)
    exact = WorkloadForecast(
        arrival_rate=SCQ_LAMBDA, average_cost=mean_arrival_cost(SCQ_CONFIG)
    )
    return {
        name: sorted(pi.estimate(run.snapshot0).remaining_seconds.items())
        for name, pi in (
            ("no-forecast", MultiQueryProgressIndicator()),
            ("exact-forecast", MultiQueryProgressIndicator(forecast=exact)),
        )
    }


@pytest.mark.parametrize("series", [_naq_series, _scq_series],
                         ids=["naq", "scq"])
def test_backends_agree_on_series(series):
    results = {}
    for backend in ENGINES:
        with projection_engine(backend):
            results[backend] = series()
    assert_series_agree(results["incremental"], results["reference"])
