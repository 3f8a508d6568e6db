"""Differential suite for the grouped-aggregate fold kernel.

``HashAggregate`` folds a batch of a grouped aggregate a *run* of equal
keys at a time, and buckets rows by key only when the keys change more
often than every eighth row.  Neither may change anything observable, so
every layout of keys -- clustered, sorted, reversed, scattered, all
equal, NULL, NaN (one shared object and distinct ones), ``1`` / ``1.0`` /
``True``, several key columns -- is run through

* the bucketing fold the kernel replaced, kept here as
  :class:`BucketingAggregate` (the oracle for every aggregate, the work
  charged and the emit-phase checkpoint),
* an explicit left-to-right ``functools.reduce(operator.add, ...)`` per
  group (:func:`reduce_reference`, the oracle for SUM and AVG that shares
  no code with the engine), and
* the kernel itself,

at batch widths 1 / 7 / 1024 and page capacities 1 / 3 / 50.  Rows must
match in value *and* type (compared by ``repr``, which tells ``-0.0`` from
``0.0`` and ``1`` from ``1.0``).

The reduce reference pins the kernel's clean fast path,
``_chain_sum(col[s+1:e], col[s])``, to the plain left-to-right chain bit
for bit.  CPython 3.12's ``sum()`` compensates float rounding, so there
``_chain_sum`` is ``reduce(add, ...)`` (still a C loop); should the two
ever part ways, :class:`TestLeftToRightReference` fails loudly instead
of letting results drift.
"""

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expr import ColumnSlot, Layout, slot_expr
from repro.engine.operators.agg import AggSpec, HashAggregate
from repro.engine.operators.base import Operator, WorkAccount
from repro.engine.vector import Chunk, ColumnVector

from tests.engine.helpers import BucketingAggregate

BATCH_SIZES = (1, 7, 1024)
PAGE_CAPACITIES = (1, 3, 50)


class PageSource(Operator):
    """Rows stored in pages of *capacity*, scanned like ``SeqScan``.

    One U per page; each page is one columnar :class:`Chunk`, split by
    ``batch_size`` with range selections.  The chunks hold the very same
    value objects, so NaN identity survives into the keys.
    """

    def __init__(self, rows, arity, capacity, account):
        super().__init__(
            Layout([ColumnSlot(None, f"c{i}") for i in range(arity)]), account
        )
        self.pages = [
            rows[start:start + capacity] for start in range(0, len(rows), capacity)
        ]
        self.arity = arity

    def batches(self, outer_env=None):
        cap = max(self.batch_size, 1)
        for page in self.pages:
            self.account.charge(1.0)
            columns = [
                ColumnVector([row[i] for row in page]) for i in range(self.arity)
            ]
            for start in range(0, len(page), cap):
                end = min(start + cap, len(page))
                if start == 0 and end == len(page):
                    yield Chunk(columns)
                else:
                    yield Chunk(columns, range(start, end))


#: Aggregates over value slots: ``(func, slot or None, distinct)``.
AGGREGATES = [
    ("COUNT", None, False),
    ("SUM", "clean", False),
    ("AVG", "clean", False),
    ("SUM", "dirty", False),
    ("AVG", "dirty", False),
    ("COUNT", "dirty", False),
    ("MIN", "clean", False),
    ("MAX", "clean", False),
    ("MIN", "dirty", False),
    ("MAX", "dirty", False),
    ("SUM", "dirty", True),
    ("COUNT", "clean", True),
]


def build(cls, rows, n_keys, aggregates, capacity, width):
    """A fresh ``cls`` aggregate over *rows*: ``n_keys`` key slots, then
    the clean and the dirty value slot."""
    account = WorkAccount()
    source = PageSource(rows, n_keys + 2, capacity, account)
    value_slot = {"clean": n_keys, "dirty": n_keys + 1}
    specs = [
        AggSpec(func, slot_expr(value_slot[arg]) if arg else None, distinct)
        for func, arg, distinct in aggregates
    ]
    agg = cls(
        source,
        [slot_expr(i) for i in range(n_keys)],
        specs,
        Layout([ColumnSlot(None, f"o{i}") for i in range(n_keys + len(specs))]),
    )
    agg.batch_size = source.batch_size = width
    return agg, account


def run(agg):
    return [row for batch in agg.batches() for row in batch]


def reduce_reference(rows, n_keys, aggregates):
    """SUM / AVG per group as an explicit left-to-right ``reduce``.

    Groups come out in first-appearance order and are keyed by a dict on
    the key tuple, exactly the grouping ``HashAggregate`` promises.
    """
    groups = {}
    value_slot = {"clean": n_keys, "dirty": n_keys + 1}
    for row in rows:
        groups.setdefault(row[:n_keys], []).append(row)
    out = []
    for key, members in groups.items():
        cells = []
        for func, arg, _ in aggregates:
            values = [r[value_slot[arg]] for r in members]
            values = [v for v in values if v is not None]
            total = functools.reduce(operator.add, values) if values else None
            if func == "AVG" and total is not None:
                total = total / len(values)
            cells.append(total)
        out.append(key + tuple(cells))
    return out


# ----------------------------------------------------------------------
# Key layouts
# ----------------------------------------------------------------------

SHARED_NAN = float("nan")


def clustered(values, lengths):
    """Runs of equal keys: value i repeated lengths[i] times."""
    return [v for v, n in zip(values, lengths) for _ in range(n)]


@st.composite
def key_layouts(draw):
    """``(layout name, key rows)``: each row a tuple of key values."""
    layout = draw(st.sampled_from([
        "clustered", "sorted", "reverse", "random", "interleaved",
        "all_equal", "null", "nan", "numeric_mix", "multi",
    ]))
    n = draw(st.integers(0, 160))
    small = st.integers(-3, 40)
    if layout == "clustered":
        values = draw(st.lists(small, min_size=n, max_size=n))
        lengths = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
        keys = clustered(values, lengths)[:n]
    elif layout in ("sorted", "reverse"):
        keys = sorted(draw(st.lists(small, min_size=n, max_size=n)))
        if layout == "reverse":
            keys.reverse()
    elif layout == "random":
        keys = draw(st.lists(st.integers(0, max(n, 1)), min_size=n, max_size=n))
    elif layout == "interleaved":
        period = draw(st.integers(2, 5))
        keys = [i % period for i in range(n)]
    elif layout == "all_equal":
        keys = [7] * n
    elif layout == "null":
        pool = st.one_of(st.none(), st.integers(0, 3))
        values = draw(st.lists(pool, min_size=n, max_size=n))
        lengths = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        keys = (
            clustered(values, lengths)[:n] if draw(st.booleans()) else values
        )
    elif layout == "nan":
        # One shared NaN object (a single group) and fresh ones (a group
        # each), in runs or scattered.
        pool = st.sampled_from(["shared", "fresh", 1.5, 2.5])
        picks = draw(st.lists(pool, min_size=n, max_size=n))
        lengths = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        if draw(st.booleans()):
            picks = clustered(picks, lengths)[:n]
        keys = [
            SHARED_NAN if p == "shared" else float("nan") if p == "fresh" else p
            for p in picks
        ]
    elif layout == "numeric_mix":
        pool = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2])
        values = draw(st.lists(pool, min_size=n, max_size=n))
        lengths = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
        keys = (
            clustered(values, lengths)[:n] if draw(st.booleans()) else values
        )
    else:  # multi
        first = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)),
                              min_size=n, max_size=n))
        second = draw(st.lists(st.sampled_from([0, 1, 1.0]),
                               min_size=n, max_size=n))
        rows = list(zip(first, second))
        if draw(st.booleans()):
            rows.sort(key=repr)
        return layout, rows
    return layout, [(k,) for k in keys]


dirty_value = st.one_of(
    st.none(),
    st.sampled_from([-0.0, 0.0, 1e16, -1e16]),
    st.integers(-50, 50),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    """Rows ``key values + (clean, dirty)``; the clean column is all ints
    or all floats, the dirty one mixes NULLs, ints and floats and often
    starts each run of a key with ``-0.0``."""
    layout, key_rows = draw(key_layouts())
    n = len(key_rows)
    if draw(st.booleans()):
        clean = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    else:
        clean = draw(st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        ))
    dirty = draw(st.lists(dirty_value, min_size=n, max_size=n))
    if draw(st.booleans()):
        for i in range(n):
            if i == 0 or key_rows[i] != key_rows[i - 1]:
                dirty[i] = -0.0
    rows = [k + (c, d) for k, c, d in zip(key_rows, clean, dirty)]
    return layout, len(key_rows[0]) if key_rows else 1, rows


aggregate_lists = st.lists(
    st.sampled_from(AGGREGATES), min_size=1, max_size=4
)


class TestRunFoldMatchesOracles:
    @given(
        table=tables(),
        aggregates=aggregate_lists,
        width=st.sampled_from(BATCH_SIZES),
        capacity=st.sampled_from(PAGE_CAPACITIES),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_types_and_work(self, table, aggregates, width, capacity):
        layout, n_keys, rows = table
        results = {}
        for name, cls in (
            ("buckets", BucketingAggregate),
            ("runs", HashAggregate),
        ):
            agg, account = build(cls, rows, n_keys, aggregates, capacity, width)
            results[name] = (repr(run(agg)), account.total)
        assert results["runs"] == results["buckets"], layout

    @given(
        table=tables(),
        width=st.sampled_from((1, 7)),
        capacity=st.sampled_from(PAGE_CAPACITIES),
        resume_width=st.sampled_from(BATCH_SIZES),
        taken=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_emit_checkpoint_round_trips(self, table, width, capacity,
                                         resume_width, taken):
        _, n_keys, rows = table
        aggregates = [("SUM", "dirty", False), ("COUNT", None, False)]
        full, _ = build(
            HashAggregate, rows, n_keys, aggregates, capacity, width
        )
        expected = run(full)

        agg, _ = build(
            HashAggregate, rows, n_keys, aggregates, capacity, width
        )
        batches = agg.batches()
        head = []
        for batch in batches:
            head.extend(batch)
            if len(head) >= taken * width:
                break
        state = agg.checkpoint()
        if len(head) == len(expected):
            assert state is None or state["emitted"] == len(expected)
            return
        assert state["phase"] == "emit" and state["emitted"] == len(head)

        resumed, account = build(
            HashAggregate, rows, n_keys, aggregates, capacity, resume_width
        )
        resumed.restore(state)
        tail = run(resumed)
        assert repr(head + tail) == repr(expected)
        assert account.total == 0.0  # the child is never touched again
        list(batches)  # the original finishing leaves the snapshot intact
        assert repr(state["pending"]) == repr(expected)


class TestAdaptiveFold:
    """The kernel picks its fold from the batch's own key changes."""

    def _bucketed(self, keys):
        """Sizes of the batches that took the bucketing fold."""
        rows = [(k, 1.0, 1.0) for k in keys]
        agg, _ = build(
            HashAggregate, rows, 1, [("SUM", "clean", False)], 50, 1024
        )
        bucketed = []
        real = agg._fold_buckets
        agg._fold_buckets = lambda *a: (bucketed.append(len(a[0])), real(*a))
        run(agg)
        return bucketed

    def test_clustered_pages_fold_runs(self):
        assert self._bucketed([k for k in range(100) for _ in range(25)]) == []

    def test_scattered_pages_bucket(self):
        assert self._bucketed([i % 7 for i in range(2500)]) == [50] * 50

    def test_the_limit_is_one_run_per_eight_rows(self):
        # 50-row pages: six runs fold run by run, a seventh tips the page
        # over to bucketing.
        six = [r for r in range(6) for _ in range(9 if r < 5 else 5)]
        seven = [r for r in range(7) for _ in range(8 if r < 6 else 2)]
        assert self._bucketed(six * 3) == []
        assert self._bucketed(seven * 3) == [50] * 3


class TestKeySemantics:
    """Run detection is a shortcut: grouping is whatever the dict says."""

    @pytest.mark.parametrize("width", [1, 1024])
    def test_distinct_nan_objects_stay_apart(self, width, gather):
        a, b = float("nan"), float("nan")
        rows = [(a, 1, 1.0), (a, 2, 1.0), (b, 4, 1.0), (b, 8, 1.0)]
        agg, _ = build(
            HashAggregate, rows, 1, [("SUM", "clean", False)], 50, width
        )
        out = run(agg)
        assert [r[1] for r in out] == [3, 12]
        assert out[0][0] is a and out[1][0] is b

    @pytest.mark.parametrize("width", [1, 1024])
    def test_one_and_true_share_a_group_keyed_by_the_first(self, width):
        # 35 rows in three runs (1.0 = 1 = True, then 0 = False, then 1):
        # the batch folds run by run.
        keys = [1.0] * 10 + [1] * 5 + [True] * 5 + [0] * 5 + [False] * 5 + [1] * 5
        rows = [(k, 1, 1.0) for k in keys]
        agg, _ = build(
            HashAggregate, rows, 1, [("SUM", "clean", False)], 50, width
        )
        out = run(agg)
        assert repr(out) == repr([(1.0, 25), (0, 10)])

    def test_leading_negative_zero_survives_a_run(self):
        # Two runs of eight: each group is folded from one slice.
        rows = [(1, -0.0, -0.0)] * 8 + [(2, 0.0, -0.0)] + [(2, -0.0, -0.0)] * 7
        agg, _ = build(
            HashAggregate, rows, 1,
            [("SUM", "clean", False), ("SUM", "dirty", False)], 50, 1024,
        )
        out = run(agg)
        assert [tuple(math.copysign(1.0, v) for v in r[1:]) for r in out] == [
            (-1.0, -1.0), (1.0, -1.0),
        ]


class TestLeftToRightReference:
    """SUM / AVG equal an explicit left-to-right ``reduce``, bit for bit."""

    @given(
        table=tables(),
        aggregates=st.lists(
            st.sampled_from([a for a in AGGREGATES
                             if a[0] in ("SUM", "AVG") and not a[2]]),
            min_size=1, max_size=4,
        ),
        width=st.sampled_from(BATCH_SIZES),
        capacity=st.sampled_from(PAGE_CAPACITIES),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_and_avg_fold_left_to_right(self, table, aggregates, width,
                                            capacity):
        layout, n_keys, rows = table
        agg, _ = build(
            HashAggregate, rows, n_keys, aggregates, capacity, width
        )
        assert repr(run(agg)) == repr(
            reduce_reference(rows, n_keys, aggregates)
        ), layout

    def test_clean_run_is_the_plain_chain(self):
        # Values whose compensated sum differs from the left-to-right
        # chain: 1e16 + 1.0 + 1.0 rounds to 1e16 twice when folded in order.
        values = [1e16, 1.0, 1.0, -1e16]
        rows = [(0, v, v) for v in values]
        agg, _ = build(
            HashAggregate, rows, 1, [("SUM", "clean", False)], 50, 1024
        )
        out = run(agg)
        assert out == [(0, functools.reduce(operator.add, values))]
        assert out[0][1] == 0.0
