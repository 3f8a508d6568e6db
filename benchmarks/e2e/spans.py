"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only, around public
calls into each layer.  One span is ``(trace, span, parent, name, start,
end, n)``: ``trace`` names the workload and repetition, ``parent`` is the
span that caused this one, ``n`` is how many calls the span stands for.
Calls too frequent to record one by one (``engine.step``, ``qos.decide``)
are folded into one aggregate child per parent: duration = the sum of
the calls, ``n`` = their count.

A layer's *self time* is its span's duration minus its children's, so
the self times of a tree sum to the root's duration by construction.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("span", "parent", "name", "start", "end", "n")

    def __init__(self, span, parent, name, start, end=None, n=1):
        self.span = span
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.n = n

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a tree of spans for one repetition."""

    enabled = True

    def __init__(self, trace: str) -> None:
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(record)
        self._stack.append(record.span)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        """*fn* wrapped so that every call records one span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def aggregate(self, name: str, parent: Span, total: float, n: int) -> None:
        """One child of *parent* standing for *n* calls lasting *total*."""
        if n:
            self.spans.append(
                Span(len(self.spans), parent.span, name, parent.start,
                     parent.start + total, n)
            )

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def by_name(self) -> dict[str, tuple[float, int, float]]:
        """Per span name: (summed duration, calls stood for, summed self time)."""
        out: dict[str, tuple[float, int, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            seconds, calls, self_s = out.get(s.name, (0.0, 0, 0.0))
            out[s.name] = (seconds + s.duration, calls + s.n, self_s + own)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "trace": self.trace, "span": s.span, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end, "n": s.n,
                }) + "\n")


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null
