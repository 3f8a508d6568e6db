"""Shared, incrementally-maintained standard-case schedule.

The Section 2.2 stage algorithm costs ``O(n log n)`` per call.  That is
cheap for one progress indicator, but a system serving *n* concurrent PIs
that recomputes the schedule from scratch for every query pays
``O(n^2 log n)`` per refresh -- the opposite of the paper's observation
that one schedule computation can serve *all* running queries at once.

:class:`IncrementalSchedule` keeps the weighted-fair-sharing schedule
*alive between refreshes* so that every PI reads from one shared
structure:

* ``add(query)``, ``remove(query_id)`` and ``reweight(query_id, w)``
  are amortized ``O(log n)``;
* ``advance(dt)`` moves virtual time forward in ``O((1 + finished)
  log n)`` -- each query is popped exactly once over its lifetime;
* ``remaining_time_of(query_id)`` answers one PI in ``O(log n)``;
* ``remaining_times()`` serves every PI in one ``O(n)`` sweep.

The trick is the *virtual-time* formulation of weighted fair sharing.
Let ``V`` be a fair-share clock that grows at rate ``dV/dt = C / W``
(``C`` the total processing rate, ``W`` the live weight sum).  Every
query consumes work at speed ``C * w_i / W``, i.e. exactly ``w_i`` units
of work per unit of ``V``.  Tagging each query at insertion with the
*finish tag*

    ``f_i = V + c_i / w_i``

makes its remaining cost at any later instant ``c_i = w_i * (f_i - V)``
and its completion the moment ``V`` reaches ``f_i`` -- so the tags are
**static** between structural changes and queries finish in ascending
``(f_i, query_id)`` order, the standard case's ``c/w`` order.

Remaining *real* time needs the stage structure.  With queries indexed
in ascending tag order, ``P_i`` the prefix weight sum before query ``i``
and ``S_i`` the prefix sum of ``f_k * w_k`` before it, telescoping the
per-stage durations ``(f_k - f_{k-1}) * W_k / C`` gives the closed form

    ``r_i = (f_i * (W - P_i) - V * W + S_i) / C``

so one balanced-tree descent maintaining subtree sums of ``w`` and
``f * w`` answers any single PI in ``O(log n)``.  The tree here is a
treap with deterministic (seeded) priorities, keeping runs reproducible.

:func:`repro.core.standard_case.standard_case` remains the reference
oracle: the differential suite in ``tests/core`` asserts the two agree
on every live query after every operation.  See ``docs/PERFORMANCE.md``
for the amortized-complexity argument and the scalability benchmarks.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from repro.core.model import QuerySnapshot
from repro.core.validation import validate_finite, validate_snapshots

#: Relative slack used when deciding whether a tag has been reached.
_EPS = 1e-12

#: Virtual time beyond which :meth:`IncrementalSchedule.advance`
#: automatically rebases tags to protect ``f - V`` differences from
#: catastrophic cancellation.  Generous: virtual time grows roughly as
#: processed-work / weight, so ordinary runs never get near it.
_AUTO_REBASE_AT = 1e15


class _Node:
    """One treap node: key ``(tag, query_id)`` plus subtree aggregates."""

    __slots__ = ("tag", "query_id", "weight", "prio", "left", "right",
                 "sum_w", "sum_fw")

    def __init__(self, tag: float, query_id: str, weight: float, prio: float):
        self.tag = tag
        self.query_id = query_id
        self.weight = weight
        self.prio = prio
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.sum_w = weight
        self.sum_fw = tag * weight

    @property
    def key(self) -> tuple[float, str]:
        return (self.tag, self.query_id)


def _pull(node: _Node) -> None:
    """Recompute *node*'s subtree aggregates from its children."""
    w = node.weight
    fw = node.tag * node.weight
    left, right = node.left, node.right
    if left is not None:
        w += left.sum_w
        fw += left.sum_fw
    if right is not None:
        w += right.sum_w
        fw += right.sum_fw
    node.sum_w = w
    node.sum_fw = fw


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _pull(node)
    _pull(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _pull(node)
    _pull(pivot)
    return pivot


def _insert(node: _Node | None, new: _Node) -> _Node:
    if node is None:
        return new
    if new.key < node.key:
        node.left = _insert(node.left, new)
        if node.left.prio < node.prio:
            node = _rotate_right(node)
    else:
        node.right = _insert(node.right, new)
        if node.right.prio < node.prio:
            node = _rotate_left(node)
    _pull(node)
    return node


def _merge(a: _Node | None, b: _Node | None) -> _Node | None:
    """Merge two treaps; every key in *a* precedes every key in *b*."""
    if a is None:
        return b
    if b is None:
        return a
    if a.prio < b.prio:
        a.right = _merge(a.right, b)
        _pull(a)
        return a
    b.left = _merge(a, b.left)
    _pull(b)
    return b


def _delete(node: _Node | None, key: tuple[float, str]) -> _Node | None:
    if node is None:  # pragma: no cover - callers check membership first
        raise KeyError(key)
    if key < node.key:
        node.left = _delete(node.left, key)
    elif key > node.key:
        node.right = _delete(node.right, key)
    else:
        return _merge(node.left, node.right)
    _pull(node)
    return node


def _leftmost(node: _Node) -> _Node:
    while node.left is not None:
        node = node.left
    return node


def _inorder(node: _Node | None) -> Iterator[_Node]:
    """Iterative in-order traversal (ascending ``(tag, query_id)``)."""
    stack: list[_Node] = []
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node
        node = node.right


class IncrementalSchedule:
    """A live standard-case schedule shared by all progress indicators.

    Parameters
    ----------
    processing_rate:
        Total work rate ``C`` in U/s (the paper's Assumption 1).
    queries:
        Optional initial queries (any order).

    Notes
    -----
    The schedule models exactly the paper's standard case: weighted fair
    sharing at constant total rate with no arrivals between operations.
    Arrivals, departures and priority changes are *operations*
    (:meth:`add`, :meth:`remove`, :meth:`reweight`), after which the
    schedule is again exact.  Completed work is not tracked -- snapshots
    produced by :meth:`snapshots` report only remaining cost and weight.
    """

    def __init__(
        self,
        processing_rate: float = 1.0,
        queries: Iterable[QuerySnapshot] = (),
    ) -> None:
        validate_finite(
            processing_rate, "processing_rate", minimum=0.0, exclusive=True
        )
        self._rate = float(processing_rate)
        self._root: _Node | None = None
        #: query id -> (tag, weight); the authoritative membership index.
        self._entries: dict[str, tuple[float, float]] = {}
        self._virtual = 0.0
        self._time = 0.0
        #: Deterministic treap priorities: identical operation sequences
        #: produce identical tree shapes (and therefore identical floats).
        self._rng = random.Random(0x51ED)
        for q in queries:
            self.add(q)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def processing_rate(self) -> float:
        """Total work rate ``C`` in U/s."""
        return self._rate

    @property
    def time(self) -> float:
        """Real time accumulated by :meth:`advance`, in seconds."""
        return self._time

    @property
    def virtual_time(self) -> float:
        """The fair-share clock ``V`` (units of work per unit weight)."""
        return self._virtual

    @property
    def total_weight(self) -> float:
        """Sum ``W`` of the live queries' weights."""
        return self._root.sum_w if self._root is not None else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._entries

    def query_ids(self) -> tuple[str, ...]:
        """Live query ids in predicted finish order."""
        return tuple(n.query_id for n in _inorder(self._root))

    finish_order = query_ids

    def remaining_cost_of(self, query_id: str) -> float:
        """Remaining work of *query_id* under the model, in U's."""
        tag, weight = self._lookup(query_id)
        return max(weight * (tag - self._virtual), 0.0)

    def weight_of(self, query_id: str) -> float:
        """Scheduling weight of *query_id*."""
        return self._lookup(query_id)[1]

    def snapshots(self) -> tuple[QuerySnapshot, ...]:
        """The live queries as :class:`QuerySnapshot`\\ s, finish order.

        Completed work is reported as 0 (the schedule does not track it).
        """
        v = self._virtual
        return tuple(
            QuerySnapshot(
                query_id=n.query_id,
                remaining_cost=max(n.weight * (n.tag - v), 0.0),
                weight=n.weight,
            )
            for n in _inorder(self._root)
        )

    def quiescent_time(self) -> float:
        """Seconds until the last live query finishes (0 when empty)."""
        if self._root is None:
            return 0.0
        work = self._root.sum_fw - self._virtual * self._root.sum_w
        return max(work / self._rate, 0.0)

    def next_finish(self) -> tuple[float, str] | None:
        """``(seconds_until, query_id)`` of the next completion, or None."""
        if self._root is None:
            return None
        head = _leftmost(self._root)
        dt = (head.tag - self._virtual) * self._root.sum_w / self._rate
        return (max(dt, 0.0), head.query_id)

    # ------------------------------------------------------------------
    # The PI read path
    # ------------------------------------------------------------------

    def remaining_time_of(self, query_id: str) -> float:
        """Predicted remaining execution time of *query_id*, in seconds.

        ``O(log n)``: one tree descent accumulating the prefix sums
        ``P`` (weight) and ``S`` (``tag * weight``) of the queries that
        finish earlier, then the closed form
        ``r = (f * (W - P) - V * W + S) / C``.
        """
        tag, weight = self._lookup(query_id)
        del weight
        key = (tag, query_id)
        prefix_w = 0.0
        prefix_fw = 0.0
        node = self._root
        while node is not None:
            if key <= node.key:
                node = node.left
            else:
                left = node.left
                if left is not None:
                    prefix_w += left.sum_w
                    prefix_fw += left.sum_fw
                prefix_w += node.weight
                prefix_fw += node.tag * node.weight
                node = node.right
        assert self._root is not None
        total_w = self._root.sum_w
        r = (tag * (total_w - prefix_w) - self._virtual * total_w + prefix_fw)
        return max(r / self._rate, 0.0)

    def remaining_times(self) -> dict[str, float]:
        """Remaining time of every live query in one ``O(n)`` sweep.

        This is the full-system refresh path: one traversal serves all
        ``n`` concurrent PIs from the shared schedule.
        """
        times: dict[str, float] = {}
        clock = 0.0
        prev_tag = self._virtual
        live_w = self.total_weight
        for node in _inorder(self._root):
            clock += max(node.tag - prev_tag, 0.0) * live_w / self._rate
            times[node.query_id] = clock
            live_w -= node.weight
            prev_tag = node.tag
        return times

    # ------------------------------------------------------------------
    # Structural updates
    # ------------------------------------------------------------------

    def add(self, query: QuerySnapshot) -> None:
        """Admit *query* into the schedule (``O(log n)``).

        Raises
        ------
        ValueError
            If the id is already scheduled, or the snapshot carries a
            NaN / infinite / negative cost or weight.
        """
        if query.query_id in self._entries:
            raise ValueError(f"duplicate query id {query.query_id!r}")
        validate_snapshots((query,))
        self.add_validated(query.query_id, query.remaining_cost, query.weight)

    def add_validated(
        self, query_id: str, remaining_cost: float, weight: float
    ) -> None:
        """:meth:`add` for a caller that has validated cost and weight.

        An entry point that checked its whole input once (a projection)
        admits through here, so no query is validated a second time.
        Duplicate ids still raise: that check guards the tree itself.
        """
        if query_id in self._entries:
            raise ValueError(f"duplicate query id {query_id!r}")
        tag = self._virtual + remaining_cost / weight
        node = _Node(tag, query_id, weight, self._rng.random())
        self._root = _insert(self._root, node)
        self._entries[query_id] = (tag, weight)

    def remove(self, query_id: str) -> None:
        """Withdraw *query_id* (finished elsewhere, aborted, blocked...).

        Raises
        ------
        KeyError
            If the id is not scheduled.
        """
        tag, _ = self._lookup(query_id)
        self._root = _delete(self._root, (tag, query_id))
        del self._entries[query_id]

    def discard(self, query_id: str) -> bool:
        """Like :meth:`remove`, but a no-op returning False when absent."""
        if query_id not in self._entries:
            return False
        self.remove(query_id)
        return True

    def reweight(self, query_id: str, weight: float) -> None:
        """Change *query_id*'s scheduling weight, keeping its cost."""
        validate_finite(weight, "weight", minimum=0.0, exclusive=True)
        cost = self.remaining_cost_of(query_id)
        self.remove(query_id)
        self.add(QuerySnapshot(query_id, cost, weight=weight))

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------

    def advance(self, dt: float) -> list[tuple[float, str]]:
        """Advance real time by *dt* seconds; return the completions.

        Completions are ``(time, query_id)`` pairs relative to the
        schedule's :attr:`time` origin, in finish order.  Each query is
        popped exactly once over its lifetime, so a sequence of advances
        costs ``O((advances + n) log n)`` overall.
        """
        validate_finite(dt, "dt", minimum=0.0)
        finished: list[tuple[float, str]] = []
        remaining = dt
        while self._root is not None:
            total_w = self._root.sum_w
            head = _leftmost(self._root)
            target = self._virtual + remaining * self._rate / total_w
            slack = _EPS * max(1.0, abs(head.tag))
            if head.tag > target + slack:
                self._virtual = target
                self._time += remaining
                remaining = 0.0
                break
            used = max(
                (head.tag - self._virtual) * total_w / self._rate, 0.0
            )
            used = min(used, remaining)
            remaining -= used
            self._time += used
            self._virtual = max(self._virtual, head.tag)
            finished.append((self._time, head.query_id))
            self._root = _delete(self._root, head.key)
            del self._entries[head.query_id]
        else:
            # Drained mid-advance: idle time passes, clock rebases free.
            self._time += remaining
            self._virtual = 0.0
        if self._virtual > _AUTO_REBASE_AT:
            self.rebase()
        return finished

    def rebase(self) -> None:
        """Shift all tags by ``-V`` and reset ``V`` to 0 (``O(n)``).

        Long-running schedules accumulate virtual time; since only the
        differences ``f - V`` matter, rebasing restores full floating-
        point resolution.  Ordering is preserved exactly (a uniform
        shift), so the tree structure is reused in place.
        """
        shift = self._virtual
        if shift == 0.0:
            return
        for node in _inorder(self._root):
            node.tag -= shift
        # Aggregates depend on tags: recompute bottom-up.
        self._repull(self._root)
        self._entries = {
            qid: (tag - shift, w) for qid, (tag, w) in self._entries.items()
        }
        self._virtual = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _lookup(self, query_id: str) -> tuple[float, float]:
        try:
            return self._entries[query_id]
        except KeyError:
            raise KeyError(f"query {query_id!r} is not scheduled") from None

    def _repull(self, node: _Node | None) -> None:
        """Recompute aggregates of a whole subtree (post-order, iterative)."""
        if node is None:
            return
        stack: list[tuple[_Node, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                _pull(current)
                continue
            stack.append((current, True))
            if current.left is not None:
                stack.append((current.left, False))
            if current.right is not None:
                stack.append((current.right, False))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IncrementalSchedule n={len(self)} W={self.total_weight:g} "
            f"V={self._virtual:g} t={self._time:g}>"
        )

