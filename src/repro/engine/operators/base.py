"""Operator base class and the work account.

Every operator produces an iterator of row batches via
:meth:`Operator.batches`: each batch is a list of row tuples or a columnar
:class:`~repro.engine.vector.Chunk` (which iterates as row tuples).
Operators that touch storage charge the shared :class:`WorkAccount` as they
go -- **one page of I/O = one U** -- which is what makes executions steppable
in work units and gives progress indicators their counters.

``batches(outer_env)`` takes the evaluation environment of the *enclosing*
query (or ``None`` at the top level) so the same operator tree can serve as
a correlated subplan, re-executed per outer row.

Operators may additionally support **work-preserving checkpoints**:
:meth:`Operator.checkpoint` captures a detached, resumable snapshot of the
subtree's consumption state, and :meth:`Operator.restore` primes a *fresh*
plan (same SQL, same data) so iteration continues where the snapshot left
off without redoing the work.  Operators without cheap state return
``None`` -- their whole subtree restarts, which is always correct, just not
work-preserving.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Optional

from repro.engine.expr import Env, Layout
from repro.engine.vector import Chunk

#: A detached operator checkpoint: plain containers only, safe to hold
#: across the death of the execution that produced it.
PlanState = dict


class WorkAccount:
    """Accumulates work (in U's) charged by operators during execution."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def charge(self, units: float) -> None:
        """Add *units* U's of work."""
        if units < 0:
            raise ValueError("cannot charge negative work")
        self.total += units

    def credit(self, units: float) -> None:
        """Credit *units* U's of already-performed (checkpointed) work.

        Used when restoring an execution from a checkpoint: the preserved
        work re-enters the counter as bookkeeping, not new execution.
        """
        if units < 0:
            raise ValueError("cannot credit negative work")
        self.total += units


class Operator(abc.ABC):
    """Base class of all physical operators."""

    def __init__(self, layout: Layout, account: WorkAccount) -> None:
        self.layout = layout
        self.account = account
        #: Optimizer estimates, annotated by the planner.
        self.est_cost: float = 0.0
        self.est_rows: float = 0.0

    #: Maximum rows per output batch in vectorized execution.  Configured
    #: tree-wide by :func:`configure_batch_size` before iteration starts.
    batch_size: int = 1024

    @abc.abstractmethod
    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        """Iterate output rows in batches, charging work as pages are touched.

        A batch is a list of row tuples or a :class:`Chunk`; either
        iterates as row tuples.  Empty batches are never yielded.
        """

    def children(self) -> tuple["Operator", ...]:
        """Child operators (for plan inspection and explain output)."""
        return ()

    # ------------------------------------------------------------------
    # Work-preserving checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> Optional[PlanState]:
        """A detached, resumable snapshot of this subtree, or ``None``.

        Called only while the pipeline is suspended between root pulls, so
        instance counters are consistent.  ``None`` means the subtree has
        no cheap resumable state *right now* (the default); a non-``None``
        state must be complete -- restoring it into a fresh plan and
        iterating must yield exactly the rows not yet emitted, charging
        only the work not yet done.  Implementations must copy any mutable
        containers they capture.
        """
        return None

    def restore(self, state: PlanState) -> None:
        """Prime a fresh operator with *state* before its first ``batches()``.

        Only meaningful on operators whose :meth:`checkpoint` can return a
        state; the base implementation rejects the call to fail loudly on
        plan-shape mismatches.
        """
        raise ValueError(
            f"{type(self).__name__} cannot restore checkpoint state"
        )

    def explain(self, indent: int = 0) -> str:
        """A human-readable plan tree with cost annotations."""
        pad = "  " * indent
        line = (
            f"{pad}{self.describe()}  "
            f"(cost={self.est_cost:.1f} rows={self.est_rows:.0f})"
        )
        parts = [line]
        parts.extend(child.explain(indent + 1) for child in self.children())
        return "\n".join(parts)

    def describe(self) -> str:
        """One-line operator description (overridden by subclasses)."""
        return type(self).__name__


def checkpoint_child(child: Operator) -> Optional[dict[str, Any]]:
    """Helper: a child's checkpoint wrapped for embedding, or ``None``."""
    state = child.checkpoint()
    if state is None:
        return None
    return {"child": state}


def drain(root: Operator, outer_env: Optional[Env] = None) -> list[tuple]:
    """Run *root* to exhaustion and return its output as row tuples."""
    out: list[tuple] = []
    for batch in root.batches(outer_env):
        out.extend(batch.tuples() if type(batch) is Chunk else batch)
    return out


def configure_batch_size(root: Operator, batch_size: int) -> None:
    """Set the output batch size on every operator of a plan tree."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    root.batch_size = batch_size
    for child in root.children():
        configure_batch_size(child, batch_size)
