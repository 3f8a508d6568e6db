"""Differential suite: IncrementalSchedule vs the standard-case oracle.

Property-based randomized testing of the tentpole equivalence claim:
after *any* sequence of add / remove / advance / reweight / re-pin
operations, :meth:`IncrementalSchedule.remaining_time_of` must equal a
fresh :func:`standard_case` solve over the schedule's own live snapshots,
for every live query, at every step -- to 1e-9 tolerance.

A second set of properties runs the same differential through the
:func:`project` entry point, covering the Section 2.3 (admission queue)
and Section 2.4 (forecast arrivals) generalisations: it must agree with
the step-by-step oracle (``tests/core/reference_projection.py``) on every
projected finish time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecast import WorkloadForecast
from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot
from repro.core.projection import project
from repro.core.standard_case import standard_case
from tests.core.reference_projection import reference_project

TOL = 1e-9

costs = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
weights = st.floats(0.05, 16.0, allow_nan=False, allow_infinity=False)
rates = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)
advances = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def assert_matches_oracle(sched: IncrementalSchedule, context: str) -> None:
    """Every live query's O(log n) answer == a fresh O(n log n) solve."""
    snaps = sched.snapshots()
    oracle = standard_case(snaps, sched.processing_rate, include_stages=False)
    sweep = sched.remaining_times()
    assert set(sweep) == set(oracle.remaining_times)
    assert sched.finish_order() == oracle.finish_order, context
    for qid, expected in oracle.remaining_times.items():
        point = sched.remaining_time_of(qid)
        assert close(point, expected), (
            f"{context}: remaining_time_of({qid!r}) = {point!r} "
            f"!= oracle {expected!r}"
        )
        assert close(sweep[qid], expected), (
            f"{context}: remaining_times()[{qid!r}] = {sweep[qid]!r} "
            f"!= oracle {expected!r}"
        )


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), rate=rates)
def test_random_op_sequences_match_standard_case(data, rate):
    """The tentpole differential: >= 1000 randomized op sequences."""
    sched = IncrementalSchedule(rate)
    next_id = 0
    n_ops = data.draw(st.integers(1, 20), label="n_ops")
    for step in range(n_ops):
        live = sorted(sched.query_ids())
        choices = ["add"]
        if live:
            choices += ["remove", "advance", "reweight", "repin"]
        op = data.draw(st.sampled_from(choices), label=f"op{step}")
        if op == "add":
            sched.add(
                QuerySnapshot(
                    f"q{next_id}",
                    data.draw(costs, label="cost"),
                    weight=data.draw(weights, label="weight"),
                )
            )
            next_id += 1
        elif op == "remove":
            sched.remove(data.draw(st.sampled_from(live), label="victim"))
        elif op == "advance":
            finished = sched.advance(data.draw(advances, label="dt"))
            for _, qid in finished:
                assert qid not in sched
        elif op == "reweight":
            sched.reweight(
                data.draw(st.sampled_from(live), label="target"),
                data.draw(weights, label="new_weight"),
            )
        else:
            # An estimate revision: the same id re-enters with a new cost.
            target = data.draw(st.sampled_from(live), label="target")
            weight = sched.weight_of(target)
            sched.remove(target)
            sched.add(QuerySnapshot(
                target, data.draw(costs, label="new_cost"), weight=weight,
            ))
        assert_matches_oracle(sched, f"after op {step} ({op})")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rate=rates)
def test_advance_completion_times_match_oracle(data, rate):
    """Completion instants reported by advance() equal the oracle's r_i."""
    n = data.draw(st.integers(1, 12), label="n")
    snaps = [
        QuerySnapshot(
            f"q{i}",
            data.draw(costs, label=f"cost{i}"),
            weight=data.draw(weights, label=f"w{i}"),
        )
        for i in range(n)
    ]
    oracle = standard_case(snaps, rate, include_stages=False)
    sched = IncrementalSchedule(rate, snaps)
    horizon = max(oracle.remaining_times.values()) + 1.0
    finished = sched.advance(horizon)
    assert tuple(qid for _, qid in finished) == oracle.finish_order
    for t, qid in finished:
        expected = oracle.remaining_times[qid]
        assert math.isclose(t, expected, rel_tol=1e-9, abs_tol=1e-6), (
            f"{qid} finished at {t!r}, oracle says {expected!r}"
        )
    assert len(sched) == 0


def _snapshot_pool(data, prefix, max_n, min_cost=0.0):
    n = data.draw(st.integers(0, max_n), label=f"n_{prefix}")
    lo = st.floats(min_cost, 1000.0, allow_nan=False, allow_infinity=False)
    return [
        QuerySnapshot(
            f"{prefix}{i}",
            data.draw(lo, label=f"{prefix}cost{i}"),
            weight=data.draw(weights, label=f"{prefix}w{i}"),
        )
        for i in range(n)
    ]


def assert_agrees_with_oracle(
    running, queued, rate, mpl, forecast, context,
    extra_arrivals=(), abs_tol=1e-6,
):
    """``project()`` and the oracle: finish times, waits, quiescent time."""
    args = dict(
        running=running,
        queued=queued,
        processing_rate=rate,
        multiprogramming_limit=mpl,
        forecast=forecast,
        extra_arrivals=extra_arrivals,
    )
    inc, ref = project(**args), reference_project(**args)
    assert set(inc.remaining_times) == set(ref.remaining_times), context
    for qid, expected in ref.remaining_times.items():
        got = inc.remaining_times[qid]
        assert math.isclose(got, expected, rel_tol=TOL, abs_tol=abs_tol), (
            f"{context}: {qid} project={got!r} oracle={expected!r}"
        )
    assert math.isclose(
        inc.quiescent_time, ref.quiescent_time, rel_tol=TOL, abs_tol=abs_tol
    ), context
    for qid in ref.queries:
        assert math.isclose(
            inc.queries[qid].queue_wait,
            ref.queries[qid].queue_wait,
            rel_tol=TOL,
            abs_tol=abs_tol,
        ), f"{context}: queue wait of {qid}"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rate=rates)
def test_projection_backends_agree_with_queue(data, rate):
    """Section 2.3 entry point: admission queue + multiprogramming limit."""
    running = _snapshot_pool(data, "r", 8)
    queued = _snapshot_pool(data, "w", 6)
    mpl = data.draw(
        st.one_of(st.none(), st.integers(1, 8)), label="mpl"
    )
    assert_agrees_with_oracle(
        running, queued, rate, mpl, None, f"mpl={mpl}"
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rate=rates)
def test_projection_backends_agree_with_forecast(data, rate):
    """Section 2.4 entry point: predicted future arrivals."""
    running = _snapshot_pool(data, "r", 6, min_cost=1.0)
    queued = _snapshot_pool(data, "w", 4, min_cost=1.0)
    mpl = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="mpl")
    forecast = WorkloadForecast(
        arrival_rate=data.draw(
            st.floats(0.001, 2.0, allow_nan=False), label="lambda"
        ),
        average_cost=data.draw(
            st.floats(1.0, 200.0, allow_nan=False), label="cbar"
        ),
        average_weight=data.draw(weights, label="wbar"),
        horizon=data.draw(
            st.floats(0.0, 200.0, allow_nan=False), label="horizon"
        ),
    )
    assert_agrees_with_oracle(
        running, queued, rate, mpl, forecast,
        f"mpl={mpl} forecast={forecast}",
    )
