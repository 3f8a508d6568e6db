"""Tests for counters, gauges, histograms and the metrics registry."""

import json
import math

import pytest

from repro.obs.metrics import (
    HISTOGRAM_BOUNDARIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(5)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram()
        for v in (0.7, 1.0, 5.0, 1000.0):
            h.observe(v)
        # bisect_left(upper edges ... 0.5, 1.0, 5.0, ... 500.0): 0.7 and
        # 1.0 -> the bucket with upper edge 1.0; 5.0 -> the next; 1000 ->
        # overflow.
        assert h.boundaries == HISTOGRAM_BOUNDARIES
        expected = [0] * (len(HISTOGRAM_BOUNDARIES) + 1)
        expected[HISTOGRAM_BOUNDARIES.index(1.0)] = 2
        expected[HISTOGRAM_BOUNDARIES.index(5.0)] = 1
        expected[-1] = 1
        assert h.counts == expected
        assert h.count == 4
        assert h.min == 0.7
        assert h.max == 1000.0
        assert h.mean == pytest.approx(1006.7 / 4)

    def test_rejects_nan_observation(self):
        with pytest.raises(ValueError):
            Histogram().observe(float("nan"))

    def test_as_dict_empty(self):
        d = Histogram().as_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None


class TestMetricsRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_collision_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            r.histogram("x")

    def test_counter_value_defaults_zero(self):
        r = MetricsRegistry()
        assert r.counter_value("never") == 0.0
        r.counter("hit").inc()
        assert r.counter_value("hit") == 1.0

    def test_as_dict_sorted_and_json_serialisable(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(1000.0)
        d = r.as_dict()
        assert list(d["counters"]) == ["a", "b"]
        assert d["gauges"]["g"] == 1.5
        assert d["histograms"]["h"]["counts"][-1] == 1
        assert sum(d["histograms"]["h"]["counts"]) == 1
        json.dumps(d)
        assert r.names() == ("a", "b", "g", "h")

    def test_merge_into_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps({"scale": {"keep": 1}}))
        r = MetricsRegistry()
        r.counter("c").inc()
        merged = r.merge_into(path)
        assert merged["scale"] == {"keep": 1}
        on_disk = json.loads(path.read_text())
        assert on_disk["metrics"]["counters"]["c"] == 1.0
        assert on_disk["scale"] == {"keep": 1}

    def test_format_metrics_deterministic(self):
        r = MetricsRegistry()
        r.counter("z").inc()
        r.counter("a").inc(3)
        r.gauge("g").set(2)
        r.histogram("h").observe(1.0)
        text = format_metrics(r)
        assert text.splitlines()[0] == "a 3"
        assert "z 1" in text
        assert "h count=1" in text
        only_counters = format_metrics(r, kinds=("counters",))
        assert "g " not in only_counters
        assert format_metrics(r) == format_metrics(r)
