"""What one multi-query PI refresh builds, and what it returns.

When nothing can arrive and the whole queue fits under the
multiprogramming limit, ``MultiQueryProgressIndicator.estimate()`` is the
Section 2.2 standard case: it must cost one flat solve -- no
``IncrementalSchedule``, no ``random.Random`` for treap priorities -- and
equal :func:`standard_case` bit for bit, ties included.  Everything else
still runs the event loop and agrees with the step-by-step oracle
(``tests/core/reference_projection.py``).  Around
both, the observable surface stays as it was: error messages, the
``projection.*`` telemetry, the result records and their attributes.
"""

import math
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.forecast import WorkloadForecast
from repro.core.model import QuerySnapshot, SystemSnapshot
from repro.core.multi_query import MultiQueryEstimate, MultiQueryProgressIndicator
from repro.core.projection import ProjectedQuery, project
from repro.core.single_query import SingleQueryProgressIndicator
from repro.core.standard_case import standard_case
from repro.obs import observed
from tests.core.reference_projection import reference_project

#: Few distinct costs and weights, so equal c/w ratios (ties) are common.
tie_costs = st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 7.5])
tie_weights = st.sampled_from([0.5, 1.0, 2.0, 4.0])
rates = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)


def pool(data, prefix, min_n, max_n):
    n = data.draw(st.integers(min_n, max_n), label=f"n_{prefix}")
    return [
        QuerySnapshot(
            f"{prefix}{i}",
            data.draw(tie_costs, label=f"{prefix}c{i}"),
            weight=data.draw(tie_weights, label=f"{prefix}w{i}"),
        )
        for i in range(n)
    ]


@contextmanager
def constructions():
    """Counts ``IncrementalSchedule`` and ``random.Random`` constructions."""
    built = {"schedule": 0, "rng": 0}
    originals = []
    for cls, key in ((incremental.IncrementalSchedule, "schedule"),
                     (random.Random, "rng")):
        real = cls.__init__

        def init(self, *args, _real=real, _key=key, **kwargs):
            built[_key] += 1
            _real(self, *args, **kwargs)

        originals.append((cls, real))
        cls.__init__ = init
    try:
        yield built
    finally:
        for cls, real in originals:
            cls.__init__ = real


class TestNothingToArrive:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rate=rates)
    def test_one_solve_equal_to_standard_case(self, data, rate):
        running = pool(data, "r", 0, 12)
        queued = pool(data, "w", 0, 4)
        total = len(running) + len(queued)
        mpl = data.draw(
            st.one_of(st.none(), st.integers(max(total, 1), total + 3)),
            label="mpl",
        )
        with constructions() as built:
            estimate = MultiQueryProgressIndicator().estimate(SystemSnapshot.of(
                running=running, queued=queued, processing_rate=rate,
                multiprogramming_limit=mpl,
            ))
        assert built == {"schedule": 0, "rng": 0}

        oracle = standard_case(running + queued, rate)
        got = estimate.remaining_seconds
        assert list(got) == list(oracle.finish_order)
        assert [t.hex() for t in got.values()] == [
            oracle.remaining_times[q].hex() for q in got
        ]
        assert estimate.quiescent_time == oracle.quiescent_time
        assert estimate.queue_waits == dict.fromkeys(got, 0.0)

    def test_a_queue_over_the_limit_still_runs_the_loop(self):
        running = [QuerySnapshot("a", 10.0), QuerySnapshot("b", 20.0)]
        queued = [QuerySnapshot("w", 5.0)]
        with constructions() as built:
            estimate = MultiQueryProgressIndicator().estimate(SystemSnapshot.of(
                running=running, queued=queued, processing_rate=1.0,
                multiprogramming_limit=2,
            ))
        assert built == {"schedule": 1, "rng": 1}
        assert estimate.queue_waits["w"] == pytest.approx(20.0)


def assert_same_estimates(got: MultiQueryEstimate, ref: MultiQueryEstimate):
    assert got.remaining_seconds.keys() == ref.remaining_seconds.keys()
    for field in ("remaining_seconds", "queue_waits"):
        for qid, expected in getattr(ref, field).items():
            assert math.isclose(
                getattr(got, field)[qid], expected, rel_tol=1e-9, abs_tol=1e-9
            ), (field, qid)
    assert math.isclose(
        got.quiescent_time, ref.quiescent_time, rel_tol=1e-9, abs_tol=1e-9
    )


class TestEventLoopAgreesWithReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rate=rates)
    def test_queue_and_forecast(self, data, rate):
        running = pool(data, "r", 1, 8)
        queued = pool(data, "w", 0, 5)
        mpl = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="mpl")
        forecast = data.draw(st.one_of(st.none(), st.builds(
            WorkloadForecast,
            arrival_rate=st.floats(0.01, 0.5),
            average_cost=st.floats(1.0, 20.0),
            average_weight=tie_weights,
        )), label="forecast")
        snapshot = SystemSnapshot.of(
            running=running, queued=queued, processing_rate=rate,
            multiprogramming_limit=mpl,
        )
        pi = MultiQueryProgressIndicator(forecast=forecast)
        got = pi.estimate(snapshot)
        with mock.patch("repro.core.multi_query.project_validated",
                        reference_project):
            ref = pi.estimate(snapshot)
        assert_same_estimates(got, ref)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rate=rates)
    def test_extra_arrivals(self, data, rate):
        running = pool(data, "r", 0, 6)
        arrivals = [
            (data.draw(st.floats(0.0, 50.0), label=f"t{i}"), q)
            for i, q in enumerate(pool(data, "x", 1, 4))
        ]
        results = [
            solve(running, processing_rate=rate, extra_arrivals=arrivals)
            for solve in (project, reference_project)
        ]
        assert results[0].queries.keys() == results[1].queries.keys()
        for qid, p in results[1].queries.items():
            got = results[0].queries[qid]
            assert math.isclose(got.finish_time, p.finish_time,
                                rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(got.queue_wait, p.queue_wait,
                                rel_tol=1e-9, abs_tol=1e-9)

    def test_simultaneous_arrivals(self):
        """After the first of two arrivals at one instant the clock sat an
        ulp past the second one's time, and the shared schedule was asked
        to advance by a negative dt."""
        rate = 13.35127124506709
        running = [QuerySnapshot(f"r{i}", c, weight=0.5)
                   for i, c in enumerate([0.0, 0.0, 10.0, 30.0, 7.5])]
        arrivals = [(rate, QuerySnapshot(f"x{i}", 0.0, weight=0.5))
                    for i in range(2)]
        results = [
            solve(running, processing_rate=rate,
                  extra_arrivals=arrivals).remaining_times
            for solve in (project, reference_project)
        ]
        assert results[0].keys() == results[1].keys()
        for qid, expected in results[1].items():
            assert math.isclose(results[0][qid], expected, rel_tol=1e-9)
        assert results[0]["x0"] == results[0]["x1"] == pytest.approx(rate)


class TestObservableSurface:
    def test_telemetry_of_a_one_solve_refresh(self):
        running = [QuerySnapshot("a", 10.0), QuerySnapshot("b", 30.0),
                   QuerySnapshot("c", 30.0)]
        with observed() as obs:
            MultiQueryProgressIndicator().estimate(
                SystemSnapshot.of(running=running, processing_rate=2.0)
            )
        histogram = obs.metrics.histogram("projection.events")
        assert (histogram.count, histogram.total) == (1, 3)
        (run,) = [e for e in obs.tracer.events if e["event"] == "projection.run"]
        assert {k: run[k] for k in (
            "virtual_time", "events", "queries", "quiescent_time",
        )} == {
            "virtual_time": None, "events": 3, "queries": 3,
            "quiescent_time": 35.0,
        }
        assert "backend" not in run
        assert obs.metrics.as_dict()["counters"] == {}

    @pytest.mark.parametrize("field, value, message", [
        ("remaining_cost", math.nan,
         "remaining_cost of query 'b' (in running) must be finite, got nan"),
        ("remaining_cost", math.inf,
         "remaining_cost of query 'b' (in running) must be finite, got inf"),
        ("completed_work", math.inf,
         "completed_work of query 'b' (in running) must be finite, got inf"),
        ("weight", math.nan,
         "weight of query 'b' (in running) must be finite, got nan"),
    ])
    def test_validation_messages(self, field, value, message):
        bad = dict(query_id="b", remaining_cost=5.0, weight=1.0)
        bad[field] = value
        snapshot = SystemSnapshot.of(
            running=[QuerySnapshot("a", 1.0), QuerySnapshot(**bad)],
            processing_rate=1.0,
        )
        with pytest.raises(ValueError) as err:
            MultiQueryProgressIndicator().estimate(snapshot)
        assert str(err.value) == message

    def test_duplicate_ids(self):
        with pytest.raises(ValueError) as err:
            project([QuerySnapshot("a", 1.0)], [QuerySnapshot("a", 2.0)],
                    processing_rate=1.0)
        assert str(err.value) == "duplicate query id 'a'"

    def test_result_records(self):
        result = project(
            [QuerySnapshot("a", 10.0), QuerySnapshot("b", 20.0)],
            [QuerySnapshot("w", 5.0)],
            processing_rate=1.0, multiprogramming_limit=2,
        )
        assert result.queries == {
            "a": ProjectedQuery("a", 20.0, 0.0),
            "w": ProjectedQuery("w", 30.0, 20.0),
            "b": ProjectedQuery("b", 35.0, 0.0),
        }
        assert result.queries["w"].queue_wait == 20.0
        assert result.remaining_time("b") == 35.0
        assert result.remaining_times == {"a": 20.0, "w": 30.0, "b": 35.0}
        assert result.quiescent_time == 35.0
        assert result.queue_waits == {"a": 0.0, "w": 20.0, "b": 0.0}
        # remaining_times hands out a fresh dict each time.
        result.remaining_times.clear()
        assert result.remaining_time("a") == 20.0
        with pytest.raises(KeyError, match="not in projection"):
            result.remaining_time("zzz")

        estimate = MultiQueryProgressIndicator().estimate(SystemSnapshot.of(
            running=[QuerySnapshot("a", 10.0)], processing_rate=2.0, time=7.0,
        ))
        assert estimate == MultiQueryEstimate(
            time=7.0, remaining_seconds={"a": 5.0}, queue_waits={"a": 0.0},
            quiescent_time=5.0, forecast_used=None,
        )


class TestSingleQueryMessages:
    """Byte-identical errors from the single-query PI's trimmed checks."""

    @pytest.mark.parametrize("time, work, message", [
        (math.nan, 1.0, "observation time must be finite, got nan"),
        (math.inf, 1.0, "observation time must be finite, got inf"),
        (1.0, math.nan, "completed_work must be finite, got nan"),
        (1.0, -2.0, "completed_work must be >= 0.0, got -2.0"),
    ])
    def test_observe(self, time, work, message):
        with pytest.raises(ValueError) as err:
            SingleQueryProgressIndicator().observe(time, work)
        assert str(err.value) == message

    def test_decreasing_inputs(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(5.0, 10.0)
        with pytest.raises(ValueError) as err:
            pi.observe(4.0, 11.0)
        assert str(err.value) == "observation times must be non-decreasing"
        with pytest.raises(ValueError) as err:
            pi.observe(6.0, 9.0)
        assert str(err.value) == "completed_work must be non-decreasing"

    @pytest.mark.parametrize("cost, message", [
        (math.nan, "remaining_cost must be finite, got nan"),
        (-1.0, "remaining_cost must be >= 0.0, got -1.0"),
    ])
    def test_estimate(self, cost, message):
        with pytest.raises(ValueError) as err:
            SingleQueryProgressIndicator().estimate(0.0, cost)
        assert str(err.value) == message

    def test_estimate_record(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(0.0, 0.0)
        pi.observe(10.0, 20.0)
        est = pi.estimate(10.0, 40.0)
        assert (est.time, est.remaining_cost, est.speed, est.remaining_seconds) \
            == (10.0, 40.0, 2.0, 20.0)
        assert pi.last_estimate is est
        with pytest.raises(AttributeError):
            est.speed = 1.0
