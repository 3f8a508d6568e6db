"""Cross-validation: the analytical projection vs the event simulator.

The projection (Section 2.2-2.4 analysis) and the simulator implement the
same system model through entirely different code paths -- closed-form /
event-driven prediction versus time-sliced execution.  For any workload
with known arrivals they must agree exactly.  Hypothesis drives both with
random workloads, MPLs and finite forecasts: a forecast's virtual queries
arrive every ``1 / lambda`` seconds up to its horizon, so the simulator
replays them as a scripted arrival schedule of real queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecast import WorkloadForecast
from repro.core.model import QuerySnapshot
from repro.core.projection import project
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


@st.composite
def scenario(draw):
    n_initial = draw(st.integers(min_value=1, max_value=6))
    initial = [
        (
            f"q{i}",
            draw(st.floats(min_value=0.5, max_value=200.0)),
            draw(st.sampled_from([1.0, 2.0, 4.0])),
        )
        for i in range(n_initial)
    ]
    n_arrivals = draw(st.integers(min_value=0, max_value=4))
    forecast = None
    if n_arrivals:
        interval = draw(st.floats(min_value=0.1, max_value=40.0))
        forecast = WorkloadForecast(
            arrival_rate=1.0 / interval,
            average_cost=draw(st.floats(min_value=0.5, max_value=100.0)),
            average_weight=draw(st.sampled_from([1.0, 2.0])),
            horizon=(n_arrivals + 0.5) * interval,
        )
    mpl = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    rate = draw(st.floats(min_value=0.5, max_value=5.0))
    return initial, forecast, mpl, rate


def forecast_arrivals(forecast):
    """The forecast's virtual arrival times, accumulated as the
    projection accumulates them."""
    times = []
    if forecast is not None:
        interval = 1.0 / forecast.arrival_rate
        t = interval
        while t <= forecast.horizon:
            times.append(t)
            t += interval
    return times


class TestProjectionMatchesSimulator:
    @given(data=scenario())
    @settings(max_examples=80, deadline=None)
    def test_finish_times_agree(self, data):
        initial, forecast, mpl, rate = data

        # --- analytical projection -----------------------------------
        running_or_queued = [
            QuerySnapshot(qid, cost, weight=w) for qid, cost, w in initial
        ]
        if mpl is None:
            running, queued = running_or_queued, []
        else:
            running = running_or_queued[:mpl]
            queued = running_or_queued[mpl:]
        predicted = project(
            running,
            queued=queued,
            processing_rate=rate,
            multiprogramming_limit=mpl,
            forecast=forecast,
        )

        # --- event simulation -----------------------------------------
        rdbms = SimulatedRDBMS(processing_rate=rate, multiprogramming_limit=mpl)
        for qid, cost, w in initial:
            rdbms.submit(SyntheticJob(qid, cost, weight=w))
        schedule = ArrivalSchedule()
        for j, t in enumerate(forecast_arrivals(forecast)):
            schedule.add(
                t, lambda j=j: SyntheticJob(
                    f"a{j}", forecast.average_cost,
                    weight=forecast.average_weight,
                )
            )
        rdbms.schedule(schedule)
        rdbms.run_to_completion()

        for qid in predicted.remaining_times:
            simulated = rdbms.traces[qid].finished_at
            assert simulated == pytest.approx(
                predicted.remaining_times[qid], rel=1e-6, abs=1e-6
            ), qid

    @given(data=scenario())
    @settings(max_examples=40, deadline=None)
    def test_queue_waits_agree(self, data):
        initial, _, mpl, rate = data
        if mpl is None:
            return  # no queueing without an MPL
        running = [QuerySnapshot(qid, c, weight=w) for qid, c, w in initial[:mpl]]
        queued = [QuerySnapshot(qid, c, weight=w) for qid, c, w in initial[mpl:]]
        predicted = project(
            running,
            queued=queued,
            processing_rate=rate,
            multiprogramming_limit=mpl,
        )
        rdbms = SimulatedRDBMS(processing_rate=rate, multiprogramming_limit=mpl)
        for qid, cost, w in initial:
            rdbms.submit(SyntheticJob(qid, cost, weight=w))
        rdbms.run_to_completion()
        for qid, c, w in initial:
            trace = rdbms.traces[qid]
            assert trace.queue_wait == pytest.approx(
                predicted.queries[qid].queue_wait, rel=1e-6, abs=1e-6
            )
