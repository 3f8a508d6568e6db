"""Sort operator (blocking, with modeled external-sort cost).

The sort keeps its run-time state (input buffer, spilled runs, sorted
output, emit position) on the instance rather than in generator locals,
which buys two capabilities:

* **Checkpoint/resume** -- the build runs inside one root pull, so
  between pulls the sort is either untouched (the child's position is the
  snapshot) or emitting (the sorted output and the emit cursor are).  A
  restored sort re-emits exactly the rows a crashed attempt had not
  produced yet, without re-sorting.
* **Memory governance** -- when a :class:`~repro.engine.memory.MemoryGovernor`
  is attached and the buffer crosses the budget, the sort degrades to
  bounded external-merge behaviour: budget-sized sorted runs are spilled
  (releasing their memory, charging the extra write+read pass) and merged
  at emit time.  Output order is identical to the in-memory path because
  every entry is decorated with a total-order key that ends in the input
  sequence number -- exactly the stable multi-key semantics of repeated
  stable sorts.
"""

from __future__ import annotations

import heapq
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
    read pass of an external sort.  NULLs sort first (ascending).  Under
    memory pressure, extra spill passes are charged per run.
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
        self._runs: list[list[_Entry]] = []
        self._seq = 0
        self._sorted: list[tuple] = []
        self._emitted = 0
        self._degraded = False
        self._resume: dict | None = None

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
            return {
                "phase": "emit",
                "sorted": self._sorted,
                "emitted": self._emitted,
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
        if state["phase"] == "idle":
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
        return True

    def _begin_build(self) -> None:
        self._phase = "build"
        self._buffer = []
        self._runs = []
        self._seq = 0
        self._degraded = False
        self._sorted = []
        self._emitted = 0

    def _finish_build(self) -> None:
        """Charge the sort's passes, produce the sorted output, start emitting."""
        gov = self.account.memory
        self.account.charge(2.0 * math.ceil(self._seq / self.rows_per_page))
        if self._runs:
            if self._buffer:
                self._spill_current_buffer()
            self._sorted = [row for _, row in heapq.merge(*self._runs)]
            self._runs = []
        else:
            self._sorted = [row for _, row in sorted(self._buffer)]
            if gov is not None:
                gov.release(len(self._buffer))
            self._buffer = []
        self._phase = "emit"

    def _spill_current_buffer(self) -> None:
        """Degrade: sort the buffer into a run and shed its memory."""
        gov = self.account.memory
        run = sorted(self._buffer)
        self._runs.append(run)
        # One extra write+read pass for the spilled run.
        self.account.charge(2.0 * math.ceil(len(run) / self.rows_per_page))
        if gov is not None:
            gov.release(len(run))
            gov.record(
                "Sort", "spill",
                f"spilled run of {len(run)} rows ({len(self._runs)} runs)",
            )
        self._buffer = []

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

        gov = self.account.memory
        self._begin_build()
        for batch in self.child.batches(outer_env):
            entries = self._entries_batch(batch, outer_env)
            if gov is None:
                self._buffer.extend(entries)
                continue
            # Reserve and spill per row, so the spill points do not
            # depend on the batch width.
            for entry in entries:
                self._buffer.append(entry)
                if not gov.reserve("Sort"):
                    if not self._degraded:
                        self._degraded = True
                        gov.record(
                            "Sort", "degrade",
                            "buffer over budget: external-merge fallback",
                        )
                    self._spill_current_buffer()

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
        suffix = " (external merge)" if self._degraded else ""
        return f"Sort [{directions}]{suffix}"
