"""A small metrics registry: counters, gauges and fixed-bucket histograms.

Every metric exposes itself as plain dicts (:meth:`MetricsRegistry.as_dict`)
so a run's metrics can be printed, asserted in tests, or merged into the
persistent bench reports via
:func:`repro.sim.scale.merge_bench_json` -- the same file the scalability
harness writes (``BENCH_scale.json``).

Histograms use *fixed* bucket boundaries chosen at creation: no dynamic
resizing, no randomness, so two runs of the same seeded simulation produce
byte-identical metric dumps.

Metric names are dotted lowercase (``"rdbms.finished"``,
``"projection.events"``); the registry is the single flat
namespace for one observed run.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

#: Default histogram boundaries (seconds-ish scale, powers of ten halves).
DEFAULT_BOUNDARIES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram of observed values.

    ``boundaries`` are the *upper* edges of the first ``len(boundaries)``
    buckets; one overflow bucket catches everything beyond the last edge.
    NaN observations are rejected (a corrupted measurement must fail loudly,
    matching :mod:`repro.core.validation`).
    """

    __slots__ = ("boundaries", "counts", "total", "count", "min", "max")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BOUNDARIES) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges:
            raise ValueError("histogram needs at least one boundary")
        if any(b != b for b in edges):
            raise ValueError("histogram boundaries must not be NaN")
        if list(edges) != sorted(set(edges)):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        if value != value:
            raise ValueError("cannot observe NaN")
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form: boundaries, per-bucket counts and summary stats."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Get-or-create registry holding one run's metrics.

    A name is permanently bound to its first-created kind: asking for
    ``counter("x")`` after ``gauge("x")`` raises, catching instrumentation
    typos instead of silently splitting a metric.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str, own: dict) -> None:
        if name in own:
            return
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created on first use)."""
        self._check_free(name, "counter", self._counters)
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created on first use)."""
        self._check_free(name, "gauge", self._gauges)
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BOUNDARIES
    ) -> Histogram:
        """The histogram called *name* (created on first use).

        ``boundaries`` only applies at creation; later calls return the
        existing histogram unchanged.
        """
        self._check_free(name, "histogram", self._histograms)
        if name not in self._histograms:
            self._histograms[name] = Histogram(boundaries)
        return self._histograms[name]

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if never touched)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0.0

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(
            sorted([*self._counters, *self._gauges, *self._histograms])
        )

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot of every metric, sorted by name.

        This is the payload merged into ``BENCH_*.json`` files via
        :func:`repro.sim.scale.merge_bench_json`.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def merge_into(self, path, section: str = "metrics") -> dict:
        """Merge :meth:`as_dict` into the bench JSON report at *path*."""
        from repro.sim.scale import merge_bench_json

        return merge_bench_json(path, section, self.as_dict())


def format_metrics(registry: MetricsRegistry, kinds: Iterable[str] = ()) -> str:
    """Render a registry as deterministic ``name value`` lines.

    ``kinds`` optionally restricts output (``"counters"``, ``"gauges"``,
    ``"histograms"``); the default prints everything.  Histograms render as
    ``count/mean/max`` summaries.
    """
    data = registry.as_dict()
    wanted = set(kinds) or {"counters", "gauges", "histograms"}
    lines = []
    if "counters" in wanted:
        for name, value in data["counters"].items():
            lines.append(f"{name} {value:g}")
    if "gauges" in wanted:
        for name, value in data["gauges"].items():
            lines.append(f"{name} {value:g}")
    if "histograms" in wanted:
        for name, h in data["histograms"].items():
            mx = h["max"] if h["max"] is not None else 0.0
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"{name} count={h['count']} mean={mean:.6g} max={mx:.6g}"
            )
    return "\n".join(lines)
