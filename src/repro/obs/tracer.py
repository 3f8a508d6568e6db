"""Structured event/span tracing for simulated runs.

The adaptivity claims of the paper (Sections 2.4, 4, 5.2.3) are about
*behaviour over time*: the PI re-estimates, the workload manager revises,
the fault layer injects, the scheduler invalidates.  This module records
that behaviour as a flat stream of structured events, each stamped with

* ``virtual_time`` -- the simulation clock the event happened at (the
  deterministic axis every test and report uses), and
* ``wall_time`` -- a monotonic host timestamp (``time.perf_counter``),
  used only for overhead analysis and never for assertions.

Events are plain dicts so the JSONL sink is a straight ``json.dumps`` per
line and downstream tooling needs no schema classes.  The canonical event
shape is documented in :data:`EVENT_FIELDS` and enforced by
:func:`validate_event` / :func:`validate_trace_file` (the CI trace gate).

The disabled path costs nothing: instrumented code holds ``None`` instead
of a tracer and guards every emission with one identity check (see
:mod:`repro.obs.runtime`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: Required keys of every trace event and their accepted types.
#: ``virtual_time`` is ``None`` for events with no simulation clock in
#: scope (e.g. a pure algorithm call such as a projection run).
EVENT_FIELDS: dict[str, tuple[type, ...]] = {
    "seq": (int,),
    "event": (str,),
    "virtual_time": (float, int, type(None)),
    "wall_time": (float, int),
}

#: Optional well-known key: the query an event is about (or ``None``).
_OPTIONAL_FIELDS: dict[str, tuple[type, ...]] = {
    "query_id": (str, type(None)),
}

#: Types permitted for free-form extra fields (kept JSON-scalar so every
#: event serialises to one flat JSONL object).
_SCALAR = (str, int, float, bool, type(None))


class TraceSchemaError(ValueError):
    """An event (or trace file) violates the documented event schema."""


def validate_event(event: dict) -> None:
    """Check one event dict against the schema; raise :class:`TraceSchemaError`.

    Required fields must be present with the right types, ``event`` must be
    a non-empty dotted name, and every extra field must be a JSON scalar.
    """
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event must be an object, got {type(event).__name__}")
    for key, types in EVENT_FIELDS.items():
        if key not in event:
            raise TraceSchemaError(f"event missing required field {key!r}: {event}")
        if not isinstance(event[key], types) or isinstance(event[key], bool):
            raise TraceSchemaError(
                f"field {key!r} has type {type(event[key]).__name__}, "
                f"expected one of {[t.__name__ for t in types]}"
            )
    if not event["event"]:
        raise TraceSchemaError("field 'event' must be a non-empty name")
    if event["seq"] < 0:
        raise TraceSchemaError(f"field 'seq' must be >= 0, got {event['seq']}")
    for key, value in event.items():
        if key in EVENT_FIELDS:
            continue
        if key in _OPTIONAL_FIELDS:
            if not isinstance(value, _OPTIONAL_FIELDS[key]):
                raise TraceSchemaError(
                    f"field {key!r} has type {type(value).__name__}"
                )
            continue
        if not isinstance(value, _SCALAR):
            raise TraceSchemaError(
                f"extra field {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )


def validate_events(events: Iterable[dict]) -> int:
    """Validate a stream of events; returns how many were checked.

    Also enforces that ``seq`` values are strictly increasing -- the sink
    must not drop, duplicate or reorder events.
    """
    count = 0
    last_seq = -1
    for event in events:
        validate_event(event)
        if event["seq"] <= last_seq:
            raise TraceSchemaError(
                f"seq {event['seq']} not increasing (previous {last_seq})"
            )
        last_seq = event["seq"]
        count += 1
    return count


def validate_trace_file(path: str | Path) -> int:
    """Validate a JSONL trace file; returns the number of events.

    Raises :class:`TraceSchemaError` on malformed JSON or schema violations.
    """
    path = Path(path)

    def _events() -> Iterator[dict]:
        with path.open() as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError as exc:
                    raise TraceSchemaError(
                        f"{path}:{lineno}: invalid JSON: {exc}"
                    ) from None

    return validate_events(_events())


class MemorySink:
    """Retain emitted events in a list (the default sink)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        """Append *event* to :attr:`events`."""
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        """No-op: memory sinks hold no resources."""


class JsonlSink:
    """Append events to a JSONL file, one object per line.

    Use as a context manager (or call :meth:`close`) so the file is
    flushed deterministically before validation reads it back.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = self.path.open("w")
        self.written = 0

    def write(self, event: dict) -> None:
        """Serialise *event* as one JSON line (keys sorted)."""
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Emit structured events (and spans) to a sink.

    Parameters
    ----------
    sink:
        Object with ``write(event_dict)``; defaults to a fresh
        :class:`MemorySink` (events retained on :attr:`events`).
    wall_clock:
        Monotonic clock used for ``wall_time`` stamps; injectable for
        deterministic tests.
    """

    def __init__(
        self,
        sink: MemorySink | JsonlSink | None = None,
        wall_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self._wall = wall_clock
        self._seq = 0

    @property
    def events(self) -> list[dict]:
        """Events retained in memory (empty for file-only sinks)."""
        if isinstance(self.sink, MemorySink):
            return self.sink.events
        return []

    @property
    def emitted(self) -> int:
        """Total number of events emitted so far."""
        return self._seq

    def emit(
        self,
        event: str,
        virtual_time: float | None,
        query_id: str | None = None,
        **fields: Any,
    ) -> None:
        """Record one event.

        ``event`` is a dotted lowercase name (``"query.finish"``,
        ``"shard.failover"``); ``virtual_time`` is the simulation clock or
        ``None`` when no simulation is in scope; extra keyword fields must
        be JSON scalars.
        """
        record: dict[str, Any] = {
            "seq": self._seq,
            "event": event,
            "virtual_time": float(virtual_time) if virtual_time is not None else None,
            "wall_time": self._wall(),
        }
        if query_id is not None:
            record["query_id"] = query_id
        for key, value in fields.items():
            if isinstance(value, float) and value != value:  # NaN: not JSON
                value = "nan"
            record[key] = value
        self._seq += 1
        self.sink.write(record)

    @contextmanager
    def span(
        self,
        event: str,
        virtual_time: float | None,
        query_id: str | None = None,
        **fields: Any,
    ) -> Iterator[None]:
        """Emit ``<event>.begin`` now and ``<event>.end`` on exit.

        The end event carries ``wall_elapsed`` (seconds of host time spent
        inside the span) -- the raw material of the overhead methodology in
        ``docs/PERFORMANCE.md``.
        """
        start = self._wall()
        self.emit(f"{event}.begin", virtual_time, query_id, **fields)
        try:
            yield
        finally:
            self.emit(
                f"{event}.end",
                virtual_time,
                query_id,
                wall_elapsed=self._wall() - start,
                **fields,
            )

    def close(self) -> None:
        """Close the underlying sink (flushes JSONL files)."""
        self.sink.close()
