"""Row-transforming operators: filter, project, limit, distinct, materialize.

All of these are checkpointable.  Streaming transforms (filter, project)
delegate entirely to the child; counting transforms (limit, concat) add
their cursors; buffering transforms (distinct, materialize) snapshot their
buffers.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from repro.engine.errors import SqlTypeError
from repro.engine.expr import BoundExpr, Env, Layout
from repro.engine.operators.base import Operator, WorkAccount, checkpoint_child
from repro.engine.vector import Chunk

__all__ = [
    "Concat",
    "Distinct",
    "Filter",
    "Limit",
    "Materialize",
    "Project",
    "SingleRow",
]


class SingleRow(Operator):
    """Produces exactly one empty row (``SELECT 1`` without FROM)."""

    def __init__(self, account: WorkAccount) -> None:
        super().__init__(Layout([]), account)
        self._done = False
        self._resume: dict | None = None

    def checkpoint(self) -> dict | None:
        return {"done": self._done}

    def restore(self, state: dict) -> None:
        self._resume = dict(state)

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        resume = self._resume
        self._resume = None
        if resume is not None and resume["done"]:
            return
        self._done = True
        yield [()]

    def describe(self) -> str:
        return "SingleRow"


class Filter(Operator):
    """Keep rows whose predicate evaluates to TRUE (not FALSE, not NULL)."""

    def __init__(self, child: Operator, predicate: BoundExpr, label: str = "") -> None:
        super().__init__(child.layout, child.account)
        self.child = child
        self.predicate = predicate
        self.label = label

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def checkpoint(self) -> dict | None:
        # Stateless stream: the child's position is the whole state.
        return checkpoint_child(self.child)

    def restore(self, state: dict) -> None:
        self.child.restore(state["child"])

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        # One output batch per input batch, never coalescing across input
        # batches: this operator never pulls input ahead of demand, so a
        # consumer that stops early (LIMIT) is charged alike at any width.
        predicate = self.predicate
        for batch in self.child.batches(outer_env):
            verdicts = predicate(batch, outer_env)
            if type(batch) is Chunk:
                # Late materialization: keep the batch columnar and only
                # narrow its selection -- no row tuples are built here.
                kept = []
                keep = kept.append
                for i, verdict in enumerate(verdicts):
                    if verdict is True:
                        keep(i)
                    elif verdict is not False and verdict is not None:
                        raise SqlTypeError(
                            f"WHERE/ON predicate returned "
                            f"{type(verdict).__name__}, expected boolean"
                        )
                if kept:
                    if len(kept) == len(verdicts):
                        yield batch
                    else:
                        yield batch.take(kept)
                continue
            out = []
            keep = out.append
            for row, verdict in zip(batch, verdicts):
                if verdict is True:
                    keep(row)
                elif verdict is not False and verdict is not None:
                    raise SqlTypeError(
                        f"WHERE/ON predicate returned {type(verdict).__name__}, "
                        "expected boolean"
                    )
            if out:
                yield out

    def describe(self) -> str:
        return f"Filter {self.label}".rstrip()


class Project(Operator):
    """Evaluate a list of expressions per row."""

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[BoundExpr],
        layout: Layout,
    ) -> None:
        if len(exprs) != len(layout):
            raise ValueError("projection arity mismatch")
        super().__init__(layout, child.account)
        self.child = child
        self.exprs = list(exprs)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def checkpoint(self) -> dict | None:
        # Stateless stream: the child's position is the whole state.
        return checkpoint_child(self.child)

    def restore(self, state: dict) -> None:
        self.child.restore(state["child"])

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        exprs = self.exprs
        for batch in self.child.batches(outer_env):
            if not exprs:
                yield [()] * len(batch)
                continue
            # Stay columnar: downstream operators (aggregates, sorts,
            # joins, the output collector) materialize tuples only where
            # they genuinely need whole rows.
            yield Chunk([e(batch, outer_env) for e in exprs])

    def describe(self) -> str:
        names = ", ".join(s.name for s in self.layout.slots)
        return f"Project [{names}]"


class Limit(Operator):
    """LIMIT / OFFSET."""

    def __init__(
        self, child: Operator, limit: Optional[int], offset: int = 0
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        if offset < 0:
            raise ValueError("offset must be >= 0")
        super().__init__(child.layout, child.account)
        self.child = child
        self.limit = limit
        self.offset = offset
        self._produced = 0
        self._skipped = 0
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def checkpoint(self) -> dict | None:
        child_state = self.child.checkpoint()
        if child_state is None:
            return None
        return {
            "produced": self._produced,
            "skipped": self._skipped,
            "child": child_state,
        }

    def restore(self, state: dict) -> None:
        self._resume = state
        self.child.restore(state["child"])

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        # The stop check follows each yield, so a satisfied LIMIT never
        # pulls (or charges) another batch; LIMIT 0 pulls exactly one.
        resume = self._resume
        self._resume = None
        self._produced = int(resume["produced"]) if resume else 0
        self._skipped = int(resume["skipped"]) if resume else 0
        if (
            resume is not None
            and self.limit is not None
            and self._produced >= self.limit
        ):
            # Checkpointed with the limit already satisfied: pulling the
            # child again could charge a page the uninterrupted run never
            # touched.
            return
        for batch in self.child.batches(outer_env):
            out = batch
            if self._skipped < self.offset:
                drop = min(self.offset - self._skipped, len(out))
                self._skipped += drop
                out = out[drop:]
            if self.limit is not None:
                room = self.limit - self._produced
                if room <= 0:
                    return
                if len(out) > room:
                    out = out[:room]
            if out:
                self._produced += len(out)
                yield out
            if self.limit is not None and self._produced >= self.limit:
                return

    def describe(self) -> str:
        return f"Limit {self.limit} offset {self.offset}"


class Distinct(Operator):
    """Hash-based duplicate elimination (row-wise)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.layout, child.account)
        self.child = child
        self._seen: set = set()
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def checkpoint(self) -> dict | None:
        child_state = self.child.checkpoint()
        if child_state is None:
            return None
        return {"seen": set(self._seen), "child": child_state}

    def restore(self, state: dict) -> None:
        self._resume = state
        self.child.restore(state["child"])

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        resume = self._resume
        self._resume = None
        self._seen = set(resume["seen"]) if resume else set()
        seen = self._seen
        for batch in self.child.batches(outer_env):
            out = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                yield out

    def describe(self) -> str:
        return "Distinct"


class Concat(Operator):
    """Concatenate the outputs of several children (UNION ALL).

    All children must share the first child's arity; the output layout is
    the first child's with qualifiers stripped (a union result is a fresh
    relation).
    """

    def __init__(self, children: Sequence[Operator], layout: Layout) -> None:
        if not children:
            raise ValueError("Concat requires at least one child")
        arity = len(children[0].layout)
        for child in children[1:]:
            if len(child.layout) != arity:
                raise ValueError(
                    "UNION branches must have the same number of columns"
                )
        super().__init__(layout, children[0].account)
        self._children = tuple(children)
        self._active = 0
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return self._children

    def checkpoint(self) -> dict | None:
        # Earlier branches are fully consumed and later ones untouched,
        # so the active branch's position is the whole state.
        child_state = self._children[self._active].checkpoint()
        if child_state is None:
            return None
        return {"active": self._active, "child": child_state}

    def restore(self, state: dict) -> None:
        self._resume = state
        self._children[state["active"]].restore(state["child"])

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        resume = self._resume
        self._resume = None
        start = resume["active"] if resume else 0
        for i in range(start, len(self._children)):
            self._active = i
            yield from self._children[i].batches(outer_env)

    def describe(self) -> str:
        return f"Concat ({len(self._children)} branches)"


class Materialize(Operator):
    """Run the child once, cache its rows, and replay them for free.

    Charges the spill cost once: ``ceil(rows / rows_per_page)`` U to write
    plus the same to re-read on the first replay (an in-memory-friendly but
    not free model).  Used as the inner side of nested-loop joins.

    A materialization is only valid for a fixed outer environment; callers
    must not reuse it across different correlation bindings (the planner
    only materializes uncorrelated subtrees).
    """

    def __init__(self, child: Operator, rows_per_page: int = 50) -> None:
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be >= 1")
        super().__init__(child.layout, child.account)
        self.child = child
        self.rows_per_page = rows_per_page
        self._cache: list[tuple] | None = None
        self._handed = 0
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def spill_pages(self, row_count: int) -> int:
        """Modeled pages needed to hold *row_count* rows."""
        return math.ceil(row_count / self.rows_per_page) if row_count else 0

    def checkpoint(self) -> dict | None:
        # The cache is built in one atomic pull, so a checkpoint lands
        # either before the build (child untouched) or with the cache
        # complete -- never mid-build.
        if self._cache is None:
            return {"cache": None, "handed": 0}
        return {"cache": list(self._cache), "handed": self._handed}

    def restore(self, state: dict) -> None:
        self._resume = state

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        resume = self._resume
        self._resume = None
        start = 0
        if resume is not None and resume["cache"] is not None:
            # Cache (and its spill charge) carried over from the checkpoint.
            self._cache = list(resume["cache"])
            start = int(resume["handed"])
        if self._cache is None:
            cache: list[tuple] = []
            for batch in self.child.batches(outer_env):
                cache.extend(batch)
            # Write + one read of the spill file.
            self.account.charge(2.0 * self.spill_pages(len(cache)))
            self._cache = cache
        self._handed = start
        cap = max(self.batch_size, 1)
        cache = self._cache
        total = len(cache)
        position = start
        while position < total:
            end = min(position + cap, total)
            chunk = cache[position:end]
            self._handed = end
            yield chunk
            position = end

    def describe(self) -> str:
        return "Materialize"
