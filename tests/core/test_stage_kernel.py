"""Differential suite for the flat stage-solve kernel and the tail rule.

Two claims:

* :func:`standard_case` without stages (the flat kernel,
  :func:`solve_stages`) equals the staged loop *exactly* -- ties, zero
  costs and mixed weights included -- and rejects bad input with the same
  words.
* :func:`project`, which finishes a projection with one kernel sweep as
  soon as nothing can arrive or be admitted any more, agrees with the
  step-by-step oracle (``tests/core/reference_projection.py``) to 1e-9
  (finish times *and* queue waits) on inputs where that tail rule fires
  mid-projection, and never fires it while a forecast can still produce
  arrivals.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import projection
from repro.core.forecast import WorkloadForecast
from repro.core.model import QuerySnapshot
from repro.core.projection import project
from repro.core.standard_case import solve_stages, standard_case
from tests.core.reference_projection import reference_project
from tests.core.test_incremental_vs_standard import assert_agrees_with_oracle

TOL = 1e-9
NAN = float("nan")
INF = float("inf")

# Few distinct values, so equal c/w ratios (ties) are common.
tie_costs = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 6.0, 12.0, 0.1, 1e-9, 1e6])
tie_weights = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])
any_costs = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
any_weights = st.floats(0.01, 64.0, allow_nan=False, allow_infinity=False)
rates = st.floats(0.1, 1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def populations(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    ids = draw(st.permutations([f"q{i}" for i in range(n)]))
    return [
        QuerySnapshot(
            qid,
            draw(st.one_of(tie_costs, any_costs)),
            weight=draw(st.one_of(tie_weights, any_weights)),
        )
        for qid in ids
    ]


class TestKernelEqualsStagedLoop:
    @settings(max_examples=500, deadline=None)
    @given(queries=populations(), rate=rates)
    def test_exactly_equal(self, queries, rate):
        flat = standard_case(queries, rate, include_stages=False)
        staged = standard_case(queries, rate, include_stages=True)
        # == on floats, not isclose: the same operations in the same order.
        assert flat.remaining_times == staged.remaining_times
        assert list(flat.remaining_times) == list(staged.remaining_times)
        assert flat.finish_order == staged.finish_order
        assert flat.quiescent_time == staged.quiescent_time
        assert flat.stages == ()
        assert len(staged.stages) == len(queries)

    @settings(max_examples=200, deadline=None)
    @given(queries=populations(), rate=rates, start=st.floats(0.0, 1e4))
    def test_start_offsets_every_finish_time(self, queries, rate, start):
        args = (
            [q.query_id for q in queries],
            [q.remaining_cost for q in queries],
            [q.weight for q in queries],
            rate,
        )
        order, times = solve_stages(*args)
        shifted_order, shifted = solve_stages(*args, start=start)
        assert shifted_order == order
        assert all(b >= a for a, b in zip(shifted, shifted[1:]))
        for plain, moved in zip(times, shifted):
            assert math.isclose(moved, start + plain, rel_tol=TOL, abs_tol=TOL)

    def test_integer_weights_and_costs(self):
        queries = [
            QuerySnapshot("a", 6, weight=2),
            QuerySnapshot("b", 3, weight=1),
            QuerySnapshot("c", 0, weight=4),
        ]
        flat = standard_case(queries, 2, include_stages=False)
        staged = standard_case(queries, 2, include_stages=True)
        assert flat.remaining_times == staged.remaining_times
        assert flat.finish_order == staged.finish_order == ("c", "a", "b")

    @pytest.mark.parametrize("field, bad", [
        ("remaining_cost", NAN), ("remaining_cost", INF), ("remaining_cost", -1.0),
        ("completed_work", NAN), ("completed_work", -3.0),
        ("weight", NAN), ("weight", INF), ("weight", -2.0), ("weight", 0.0),
    ])
    def test_same_error_text(self, field, bad):
        snap = QuerySnapshot("Q2", 5.0, completed_work=1.0, weight=2.0)
        object.__setattr__(snap, field, bad)  # a corrupted runtime signal
        queries = [QuerySnapshot("Q1", 1.0), snap, QuerySnapshot("Q3", NAN)]
        messages = []
        for include_stages in (False, True):
            with pytest.raises(ValueError) as info:
                standard_case(queries, 1.0, include_stages=include_stages)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"{field} of query 'Q2' (in queries)" in messages[0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, NAN, INF])
    def test_same_error_text_for_the_rate(self, bad):
        messages = []
        for include_stages in (False, True):
            with pytest.raises(ValueError) as info:
                standard_case([QuerySnapshot("a", 1.0)], bad, include_stages)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("processing_rate must be")


# ----------------------------------------------------------------------
# The tail rule inside project()
# ----------------------------------------------------------------------

costs = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
busy_costs = st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False)
weights = st.floats(0.05, 16.0, allow_nan=False, allow_infinity=False)
proj_rates = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)


def pool(data, prefix, min_n, max_n, cost=costs):
    n = data.draw(st.integers(min_n, max_n), label=f"n_{prefix}")
    return [
        QuerySnapshot(
            f"{prefix}{i}",
            data.draw(cost, label=f"{prefix}cost{i}"),
            weight=data.draw(weights, label=f"{prefix}w{i}"),
        )
        for i in range(n)
    ]


@contextmanager
def spy_on_tail_rule():
    """Yields the clock of every ``_solve_rest`` call (the rule firing)."""
    clocks = []
    real = projection._solve_rest

    def spy(ids, costs, weights, processing_rate, clock):
        clocks.append(clock)
        return real(ids, costs, weights, processing_rate, clock)

    projection._solve_rest = spy
    try:
        yield clocks
    finally:
        projection._solve_rest = real


def assert_matches_oracle(
    context, running, processing_rate, queued=(), multiprogramming_limit=None,
    forecast=None, extra_arrivals=(),
):
    """Finish times, queue waits and quiescent time, all to 1e-9."""
    assert_agrees_with_oracle(
        running, queued, processing_rate, multiprogramming_limit, forecast,
        context, extra_arrivals=extra_arrivals, abs_tol=TOL,
    )


class TestTailRule:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rate=proj_rates)
    def test_fires_after_the_queue_drains(self, data, rate):
        """Queue longer than the free slots: treap first, kernel after."""
        mpl = data.draw(st.integers(1, 5), label="mpl")
        running = pool(data, "r", mpl, mpl, cost=busy_costs)
        queued = pool(data, "w", 1, 6)
        with spy_on_tail_rule() as tail_clocks:
            assert_matches_oracle(
                f"mpl={mpl}", running=running, queued=queued,
                processing_rate=rate, multiprogramming_limit=mpl,
            )
        # Exactly once (the oracle has no tail rule), and only after the
        # first completion freed a slot.
        assert len(tail_clocks) == 1
        assert tail_clocks[0] > 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rate=proj_rates)
    def test_fires_when_a_finite_forecast_runs_out(self, data, rate):
        running = pool(data, "r", 1, 6, cost=busy_costs)
        queued = pool(data, "w", 0, 4, cost=busy_costs)
        mpl = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="mpl")
        forecast = WorkloadForecast(
            arrival_rate=data.draw(st.floats(0.01, 2.0), label="lambda"),
            average_cost=data.draw(st.floats(1.0, 200.0), label="cbar"),
            average_weight=data.draw(weights, label="wbar"),
            horizon=data.draw(st.floats(0.0, 100.0), label="horizon"),
        )
        with spy_on_tail_rule() as tail_clocks:
            assert_matches_oracle(
                f"mpl={mpl} {forecast}", running=running, queued=queued,
                processing_rate=rate, multiprogramming_limit=mpl,
                forecast=forecast,
            )
        assert len(tail_clocks) <= 1
        first_arrival = 1.0 / forecast.arrival_rate
        if tail_clocks and first_arrival <= forecast.horizon:
            # Virtual queries were due: the rule waited for the last one.
            assert tail_clocks[0] >= first_arrival * (1 - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rate=proj_rates)
    def test_fires_when_extra_arrivals_are_used_up(self, data, rate):
        running = pool(data, "r", 1, 5, cost=busy_costs)
        mpl = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="mpl")
        arrivals = [
            (data.draw(st.floats(0.0, 50.0), label=f"t{i}"), q)
            for i, q in enumerate(pool(data, "x", 1, 4))
        ]
        with spy_on_tail_rule() as tail_clocks:
            assert_matches_oracle(
                f"mpl={mpl} arrivals={arrivals}", running=running,
                processing_rate=rate, multiprogramming_limit=mpl,
                extra_arrivals=arrivals,
            )
        # When some query outlasts the last arrival the rule fires at (or
        # after) that arrival; otherwise the event loop already finished.
        assert len(tail_clocks) <= 1
        if tail_clocks:
            assert tail_clocks[0] >= max(t for t, _ in arrivals) * (1 - 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rate=proj_rates)
    def test_never_fires_under_an_unbounded_forecast(self, data, rate):
        running = pool(data, "r", 1, 5, cost=busy_costs)
        queued = pool(data, "w", 0, 3, cost=busy_costs)
        mpl = data.draw(st.one_of(st.none(), st.integers(1, 5)), label="mpl")
        # Stable load (lambda * cbar < C), so the projection terminates.
        cbar = data.draw(st.floats(1.0, 50.0), label="cbar")
        load = data.draw(st.floats(0.05, 0.5), label="load")
        forecast = WorkloadForecast(
            arrival_rate=load * rate / cbar,
            average_cost=cbar,
            average_weight=data.draw(weights, label="wbar"),
            horizon=None,
        )
        with spy_on_tail_rule() as tail_clocks:
            assert_matches_oracle(
                f"mpl={mpl} {forecast}", running=running, queued=queued,
                processing_rate=rate, multiprogramming_limit=mpl,
                forecast=forecast,
            )
        assert tail_clocks == []

    def test_empty_queue_is_one_sweep_and_no_treap(self, monkeypatch):
        inserted = []
        real = projection.IncrementalSchedule.add_validated
        monkeypatch.setattr(
            projection.IncrementalSchedule, "add_validated",
            lambda self, *a: (inserted.append(a), real(self, *a))[1],
        )
        running = [
            QuerySnapshot(f"q{i}", 10.0 + i, weight=1 + i % 3) for i in range(50)
        ]
        queued = [QuerySnapshot(f"w{i}", 5.0 + i) for i in range(10)]
        with spy_on_tail_rule() as tail_clocks:
            result = project(running, queued, processing_rate=7.0)
        oracle = standard_case(running + queued, 7.0, include_stages=False)
        # The very operations standard_case performs: equal, not just close.
        assert result.remaining_times == oracle.remaining_times
        assert result.quiescent_time == oracle.quiescent_time
        assert all(p.queue_wait == 0.0 for p in result.queries.values())
        assert tail_clocks == [0.0]
        assert inserted == []

    def test_one_event_per_completion(self):
        from repro.obs import observed

        # No two completions coincide, so an event is a completion.
        running = [QuerySnapshot(f"q{i}", 10.0 * (i + 1)) for i in range(6)]
        queued = [QuerySnapshot(f"w{i}", 3.7 + 1.3 * i) for i in range(3)]
        with observed() as obs:
            project(running, queued, processing_rate=2.0,
                    multiprogramming_limit=6)
        (run,) = [
            e for e in obs.tracer.events if e["event"] == "projection.run"
        ]
        oracle = reference_project(running, queued, processing_rate=2.0,
                                   multiprogramming_limit=6)
        assert run["events"] == oracle.events == 9


class TestDuplicateIdsStillRaise:
    @pytest.mark.parametrize("queued, mpl, arrivals", [
        # A queue over the limit: the treap path.
        ([QuerySnapshot("a", 10.0)], 2, ()),
        # An arrival after its running twin has finished, so the two are
        # never live together.
        ((), None, [(100.0, QuerySnapshot("a", 5.0))]),
        # A queue under the limit: the engine-free path.
        ([QuerySnapshot("a", 10.0)], None, ()),
    ], ids=["queue_over_mpl", "late_arrival", "kernel_only"])
    def test_checked_once_at_entry(self, queued, mpl, arrivals):
        running = [QuerySnapshot("a", 10.0), QuerySnapshot("b", 20.0)]
        with spy_on_tail_rule() as tail_clocks:
            with pytest.raises(ValueError, match=r"^duplicate query id 'a'$"):
                project(running, queued, processing_rate=1.0,
                        multiprogramming_limit=mpl, extra_arrivals=arrivals)
        assert tail_clocks == []

    def test_in_the_kernel_only_path(self):
        running = [QuerySnapshot("a", 1.0), QuerySnapshot("b", 2.0),
                   QuerySnapshot("a", 3.0)]
        with pytest.raises(ValueError, match=r"^duplicate query id 'a'$"):
            project(running, processing_rate=1.0)

    def test_between_running_and_admitted_queue(self):
        with pytest.raises(ValueError, match=r"^duplicate query id 'b'$"):
            project(
                [QuerySnapshot("a", 1.0), QuerySnapshot("b", 2.0)],
                [QuerySnapshot("b", 3.0)],
                processing_rate=1.0,
            )

    def test_on_the_treap_path(self):
        with pytest.raises(ValueError, match=r"^duplicate query id 'a'$"):
            project(
                [QuerySnapshot("a", 1.0), QuerySnapshot("a", 2.0)],
                [QuerySnapshot("w", 3.0)],
                processing_rate=1.0,
                multiprogramming_limit=2,
            )

    def test_an_arrival_joining_a_live_twin(self):
        with pytest.raises(ValueError, match=r"^duplicate query id 'a'$"):
            project(
                [QuerySnapshot("a", 100.0)],
                processing_rate=1.0,
                extra_arrivals=[(1.0, QuerySnapshot("a", 5.0))],
            )
