"""Sort operator (blocking, with modeled external-sort cost).

The sort keeps its run-time state (input buffer, sorted output, emit
position) on the instance rather than in generator locals, which buys
checkpoint/resume: the build runs inside one root pull, so between pulls
the sort is either untouched (the child's position is the snapshot) or
emitting (the sorted output and the emit cursor are).  A restored sort
re-emits exactly the rows a crashed attempt had not produced yet, without
re-sorting.  Every entry is decorated with a total-order key that ends in
the input sequence number -- exactly the stable multi-key semantics of
repeated stable sorts.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Optional, Sequence

from repro.engine.expr import BoundExpr, Env
from repro.engine.operators.base import Operator
from repro.engine.types import sort_key


class _Desc:
    """Order-inverting wrapper so DESC keys compose inside one tuple key."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and self.value == other.value


#: A decorated sort entry: (composite key ending in seq, row).
_Entry = tuple[tuple, tuple]


class Sort(Operator):
    """ORDER BY: materialize, sort, emit.

    Charges ``2 * ceil(rows / rows_per_page)`` U, modeling one write and one
    read pass of an external sort.  NULLs sort first (ascending).
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[tuple[BoundExpr, bool]],  # (expr, descending)
        rows_per_page: int = 50,
    ) -> None:
        if not keys:
            raise ValueError("sort requires at least one key")
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be >= 1")
        super().__init__(child.layout, child.account)
        self.child = child
        self.keys = list(keys)
        self.rows_per_page = rows_per_page
        #: ``"idle"`` / ``"build"`` / ``"emit"`` -- the current phase.
        self._phase = "idle"
        self._buffer: list[_Entry] = []
        self._seq = 0
        self._sorted: list[tuple] = []
        self._emitted = 0
        self._resume: dict | None = None
        #: The drained child's checkpoint state, once the emit phase has one.
        self._drained: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict | None:
        if self._phase == "emit":
            # Child fully consumed: the sorted output and cursor suffice.
            # ``_sorted`` is never mutated once built (a re-run rebinds
            # it), so every emit-phase checkpoint shares it; restore copies.
            # The drained child's state, taken once, rides along only so a
            # restore resumes the progress tracker's driver position.
            if self._drained is None:
                self._drained = self.child.checkpoint()
            return {
                "phase": "emit",
                "sorted": self._sorted,
                "emitted": self._emitted,
                "child": self._drained,
            }
        if self._phase == "build":
            # Only seen from inside a pull, or after one raised.
            return None
        child_state = self.child.checkpoint()
        if child_state is None:
            return None
        return {"phase": "idle", "child": child_state}

    def restore(self, state: dict) -> None:
        self._resume = state
        if state["child"] is not None:
            self.child.restore(state["child"])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _resume_emit(self) -> bool:
        """Take a pending restore; ``True`` if it resumes the emit phase."""
        resume = self._resume
        self._resume = None
        if resume is None or resume["phase"] != "emit":
            return False
        self._phase = "emit"
        self._sorted = list(resume["sorted"])
        self._emitted = resume["emitted"]
        self._drained = resume["child"]
        return True

    def _begin_build(self) -> None:
        self._phase = "build"
        self._drained = None
        self._buffer = []
        self._seq = 0
        self._sorted = []
        self._emitted = 0

    def _finish_build(self) -> None:
        """Charge the sort's passes, produce the sorted output, start emitting."""
        self.account.charge(2.0 * math.ceil(self._seq / self.rows_per_page))
        self._sorted = [row for _, row in sorted(self._buffer)]
        self._buffer = []
        self._phase = "emit"

    def _entries_batch(self, batch: list, outer_env) -> list[_Entry]:
        """Decorate a whole batch of rows with their sort keys."""
        key_columns = []
        for expr, descending in self.keys:
            values = expr(batch, outer_env)
            if descending:
                key_columns.append([_Desc(sort_key(v)) for v in values])
            else:
                key_columns.append([sort_key(v) for v in values])
        seq = self._seq
        entries = []
        if len(key_columns) == 1:
            for k, row in zip(key_columns[0], batch):
                entries.append(((k, seq), row))
                seq += 1
        else:
            for i, row in enumerate(batch):
                entries.append(
                    (tuple(kc[i] for kc in key_columns) + (seq,), row)
                )
                seq += 1
        self._seq = seq
        return entries

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        if self._resume_emit():
            yield from self._emit_batches(self._emitted)
            return

        self._begin_build()
        for batch in self.child.batches(outer_env):
            self._buffer.extend(self._entries_batch(batch, outer_env))

        self._finish_build()
        yield from self._emit_batches(0)

    def _emit_batches(self, start: int) -> Iterator[list]:
        cap = max(self.batch_size, 1)
        sorted_rows = self._sorted
        total = len(sorted_rows)
        position = start
        while position < total:
            end = min(position + cap, total)
            chunk = sorted_rows[position:end]
            self._emitted = end
            yield chunk
            position = end

    def describe(self) -> str:
        directions = ", ".join("DESC" if d else "ASC" for _, d in self.keys)
        return f"Sort [{directions}]"
