"""Stdlib ``sqlite3`` as the outside oracle for the SQL engine.

The engine's rows are checked against sqlite3 running the same SQL text
over a copy of the same data.  sqlite3 shares no code with the engine --
no parser, planner, operator or expression evaluator -- so a bug the two
have in common is a real coincidence, not a shared code path.  (The data
is copied out of the engine's heap files: storage is the input, not the
thing under test.)

Rows match as multisets, or as sequences when the statement has a
top-level ``ORDER BY``; a corpus entry with an ``ORDER BY`` must order
totally (every tie is between identical output rows).  Floats compare to
1e-9 relative, because sqlite3 builds may sum with compensation.

Dialect normalisers -- one per known gap between the two engines; none of
them skips a case:

* **NULL sort position** (:func:`pin_null_order`): the engine sorts NULL
  below every value (first ascending, last descending).  sqlite3's
  default agrees, but the oracle does not lean on a default: every
  top-level ``ORDER BY`` key gets an explicit ``NULLS FIRST`` /
  ``NULLS LAST`` in the text sqlite3 runs.
* **LIKE case folding** (:data:`CASE_SENSITIVE_LIKE`): the engine's
  ``LIKE`` is case-sensitive; sqlite3 folds ASCII case unless
  ``PRAGMA case_sensitive_like`` is on, so the oracle turns it on.
* **int/float affinity** (:func:`normalise_value`): sqlite3 stores
  ``BOOLEAN`` as 0/1 and lets ``INTEGER`` and ``REAL`` results trade
  types where the engine keeps one; values compare numerically, with
  ``True``/``False`` as 1/0 and ``3`` equal to ``3.0``.  Type identity is
  still pinned, but across vector widths of the engine itself.
* **avg of ints** (:func:`values_close`): sqlite3 turns its int64 sum into
  a double before it divides, while the engine divides the exact Python
  integer; the two agree to an ulp, which the float tolerance absorbs.
"""

from __future__ import annotations

import math
import sqlite3
from collections.abc import Sequence
from typing import Any

from repro.engine.types import SqlType

#: Relative tolerance for float cells.
REL_TOL = 1e-9

#: Issued on every oracle connection (the LIKE case-folding normaliser).
CASE_SENSITIVE_LIKE = "PRAGMA case_sensitive_like = ON"

_SQLITE_TYPES = {
    SqlType.INTEGER: "INTEGER",
    SqlType.FLOAT: "REAL",
    SqlType.TEXT: "TEXT",
    SqlType.BOOLEAN: "INTEGER",
}


def sqlite_copy(db) -> sqlite3.Connection:
    """An in-memory sqlite3 database holding every table of *db*."""
    conn = sqlite3.connect(":memory:")
    conn.execute(CASE_SENSITIVE_LIKE)
    for table in db.catalog.tables():
        columns = table.schema.columns
        conn.execute(
            f"CREATE TABLE {table.name} ("
            + ", ".join(f"{c.name} {_SQLITE_TYPES[c.sql_type]}" for c in columns)
            + ")"
        )
        marks = ", ".join("?" * len(columns))
        conn.executemany(
            f"INSERT INTO {table.name} VALUES ({marks})",
            (row for _, row in table.heap.scan_rows()),
        )
    return conn


def _top_level_split(text: str, sep: str) -> list[str]:
    """Split *text* on *sep* outside parentheses and string literals."""
    parts, depth, quoted, start = [], 0, False, 0
    lowered = text.lower()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "'":
            quoted = not quoted
        elif not quoted:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and lowered.startswith(sep, i):
                parts.append(text[start:i])
                i += len(sep)
                start = i
                continue
        i += 1
    parts.append(text[start:])
    return parts


def pin_null_order(sql: str) -> str:
    """*sql* with explicit NULL placement on its top-level ORDER BY keys."""
    head, *tail = _top_level_split(sql, " order by ")
    if not tail:
        return sql
    keys_and_rest = tail[-1]
    pieces = _top_level_split(keys_and_rest, " limit ")
    keys = _top_level_split(pieces[0], ",")
    pinned = []
    for key in keys:
        key = key.strip()
        descending = key.lower().endswith(" desc")
        pinned.append(f"{key} {'NULLS LAST' if descending else 'NULLS FIRST'}")
    rest = "".join(" limit " + p for p in pieces[1:])
    return " order by ".join([head, *tail[:-1], ", ".join(pinned) + rest])


def is_ordered(sql: str) -> bool:
    """Whether *sql* has a top-level ORDER BY (compared as a sequence)."""
    return len(_top_level_split(sql, " order by ")) > 1


def sqlite_rows(conn: sqlite3.Connection, sql: str) -> list[tuple]:
    """Run *sql* on the oracle, with every normaliser applied."""
    return conn.execute(pin_null_order(sql)).fetchall()


def normalise_value(value: Any) -> Any:
    """The int/float affinity normaliser: numbers as floats."""
    if isinstance(value, (bool, int)):
        return float(value)
    return value


def values_close(a: Any, b: Any) -> bool:
    """Cell equality: floats to :data:`REL_TOL` relative, else ``==``."""
    a, b = normalise_value(a), normalise_value(b)
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def _sort_key(row: Sequence) -> tuple:
    """A total order over normalised rows (NULL first, floats rounded)."""
    out = []
    for value in map(normalise_value, row):
        if value is None:
            out.append((0, 0.0))
        elif isinstance(value, float):
            out.append((1, float(f"{value:.12g}")))
        else:
            out.append((2, value))
    return tuple(out)


def assert_rows_match(got: Sequence[tuple], want: Sequence[tuple], ordered: bool):
    """*got* equals *want* as a sequence (*ordered*) or as a multiset."""
    assert len(got) == len(want), f"{len(got)} rows, oracle has {len(want)}"
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    for i, (g, w) in enumerate(zip(got, want)):
        assert len(g) == len(w) and all(map(values_close, g, w)), (
            f"row {i}: engine {g!r} != sqlite3 {w!r}"
        )


def assert_matches_sqlite(db, sql: str, got: Sequence[tuple], conn=None) -> None:
    """*got* (the engine's rows for *sql* on *db*) matches sqlite3's."""
    if conn is None:
        conn = sqlite_copy(db)
    assert_rows_match(got, sqlite_rows(conn, sql), is_ordered(sql))
