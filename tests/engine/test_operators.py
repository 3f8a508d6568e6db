"""Direct tests of physical operators and their work accounting."""

import pytest

from repro.engine import Database
from repro.engine.catalog import Catalog
from repro.engine.expr import ColumnSlot, Layout, slot_expr
from repro.engine.operators.agg import AggSpec, HashAggregate
from repro.engine.operators.base import WorkAccount
from repro.engine.operators.joins import HashJoin, NestedLoopJoin
from repro.engine.operators.scans import IndexScan, SeqScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.transforms import (
    Distinct,
    Filter,
    Limit,
    Materialize,
    Project,
    SingleRow,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType

from tests.engine.helpers import per_row, rows_of


def make_table(rows, page_capacity=4, name="t", columns=("k", "v")):
    catalog = Catalog(page_capacity=page_capacity)
    schema = TableSchema.of(
        name,
        [Column(c, SqlType.INTEGER if i == 0 else SqlType.FLOAT)
         for i, c in enumerate(columns)],
    )
    table = catalog.create_table(schema)
    for row in rows:
        table.insert(row)
    return catalog, table


class TestSeqScan:
    def test_yields_all_rows_charging_pages(self):
        _, table = make_table([(i, float(i)) for i in range(10)], page_capacity=3)
        account = WorkAccount()
        scan = SeqScan(table, "t", account)
        rows = list(rows_of(scan))
        assert len(rows) == 10
        assert account.total == 4.0  # ceil(10/3) pages

    def test_progress_fraction_row_granular(self):
        _, table = make_table([(i, float(i)) for i in range(8)], page_capacity=4)
        account = WorkAccount()
        scan = SeqScan(table, "t", account)
        it = rows_of(scan)
        assert scan.progress_fraction() <= 0.0 or scan.total_pages == 0
        next(it)
        f1 = scan.progress_fraction()
        next(it)
        next(it)
        f2 = scan.progress_fraction()
        assert 0 <= f1 < f2 < 1.0
        list(it)
        assert scan.progress_fraction() == pytest.approx(1.0)

    def test_empty_table(self):
        _, table = make_table([])
        scan = SeqScan(table, "t", WorkAccount())
        assert list(rows_of(scan)) == []
        assert scan.progress_fraction() == 1.0


class TestIndexScan:
    def _scan(self, probe_value):
        catalog, table = make_table(
            [(i % 5, float(i)) for i in range(50)], page_capacity=5
        )
        index = catalog.create_index("idx", "t", "k")
        account = WorkAccount()
        probe = per_row(lambda row: probe_value)
        return IndexScan(table, "t", index, probe, account), account

    def test_matching_rows(self):
        scan, account = self._scan(3)
        rows = list(rows_of(scan))
        assert len(rows) == 10
        assert all(r[0] == 3 for r in rows)
        assert account.total > 0
        assert scan.probes_done == 1

    def test_no_match_still_charges_descent(self):
        scan, account = self._scan(99)
        assert list(rows_of(scan)) == []
        assert account.total >= 1.0

    def test_distinct_page_charging(self):
        # All matches on one value spread over 10 pages of 5 rows:
        # k cycles 0..4 so k=3 hits every page exactly twice.
        scan, account = self._scan(3)
        list(rows_of(scan))
        # descent (height) + 10 heap pages, NOT 10 rows + descent each.
        assert account.total == pytest.approx(scan.index.height() + 10)


class TestTransforms:
    def _base(self):
        _, table = make_table([(i, float(i)) for i in range(10)], page_capacity=5)
        return SeqScan(table, "t", WorkAccount())

    def test_filter(self):
        scan = self._base()
        op = Filter(scan, per_row(lambda row: row[0] >= 7))
        assert [r[0] for r in rows_of(op)] == [7, 8, 9]

    def test_filter_null_is_dropped(self):
        scan = self._base()
        op = Filter(
            scan, per_row(lambda row: None if row[0] == 0 else row[0] > 5)
        )
        assert [r[0] for r in rows_of(op)] == [6, 7, 8, 9]

    def test_project(self):
        scan = self._base()
        op = Project(
            scan,
            [per_row(lambda row: row[0] * 10)],
            Layout([ColumnSlot(None, "x")]),
        )
        assert [r for r in rows_of(op)][:3] == [(0,), (10,), (20,)]

    def test_project_arity_checked(self):
        scan = self._base()
        with pytest.raises(ValueError):
            Project(scan, [], Layout([ColumnSlot(None, "x")]))

    def test_limit_offset(self):
        op = Limit(self._base(), limit=3, offset=2)
        assert [r[0] for r in rows_of(op)] == [2, 3, 4]
        op = Limit(self._base(), limit=None, offset=8)
        assert [r[0] for r in rows_of(op)] == [8, 9]

    def test_limit_stops_pulling(self):
        scan = self._base()
        op = Limit(scan, limit=1)
        assert len(list(rows_of(op))) == 1
        # Only the first page was read.
        assert scan.account.total == 1.0

    def test_distinct(self):
        _, table = make_table([(1, 1.0), (1, 1.0), (2, 1.0)])
        scan = SeqScan(table, "t", WorkAccount())
        assert len(list(rows_of(Distinct(scan)))) == 2

    def test_materialize_replays_free(self):
        scan = self._base()
        mat = Materialize(scan, rows_per_page=5)
        first = list(rows_of(mat))
        charged = scan.account.total
        second = list(rows_of(mat))
        assert first == second
        assert scan.account.total == charged  # no extra work

    def test_materialize_spill_charge(self):
        scan = self._base()
        mat = Materialize(scan, rows_per_page=5)
        list(rows_of(mat))
        # 2 scan pages + 2*2 spill pages.
        assert scan.account.total == pytest.approx(2 + 4)

    def test_single_row(self):
        op = SingleRow(WorkAccount())
        assert list(rows_of(op)) == [()]


class TestJoins:
    def _tables(self):
        cat_l, left = make_table([(i, float(i)) for i in range(6)], name="l")
        cat_r, right = make_table(
            [(i % 3, float(i) * 10) for i in range(6)], name="r",
            columns=("k", "w"),
        )
        account = WorkAccount()
        lscan = SeqScan(left, "l", account)
        rscan = SeqScan(right, "r", account)
        return lscan, rscan

    def test_hash_join(self):
        lscan, rscan = self._tables()
        join = HashJoin(
            lscan, rscan,
            probe_key=slot_expr(0),
            build_key=slot_expr(0),
        )
        rows = list(rows_of(join))
        # keys 0,1,2 each match twice; keys 3..5 never.
        assert len(rows) == 6
        assert all(r[0] == r[2] for r in rows)

    def test_hash_join_null_keys_dropped(self):
        _, left = make_table([(None, 1.0), (1, 1.0)], name="l")
        _, right = make_table([(None, 2.0), (1, 2.0)], name="r")
        account = WorkAccount()
        join = HashJoin(
            SeqScan(left, "l", account),
            SeqScan(right, "r", account),
            probe_key=slot_expr(0),
            build_key=slot_expr(0),
        )
        assert len(list(rows_of(join))) == 1

    def test_nested_loop_cross(self):
        lscan, rscan = self._tables()
        join = NestedLoopJoin(lscan, Materialize(rscan), None)
        assert len(list(rows_of(join))) == 36

    def test_nested_loop_with_condition(self):
        lscan, rscan = self._tables()
        join = NestedLoopJoin(
            lscan,
            Materialize(rscan),
            condition=per_row(lambda row: row[0] == row[2]),
        )
        assert len(list(rows_of(join))) == 6

    def test_layout_merged(self):
        lscan, rscan = self._tables()
        join = NestedLoopJoin(lscan, Materialize(rscan), None)
        names = [(s.qualifier, s.name) for s in join.layout.slots]
        assert names == [("l", "k"), ("l", "v"), ("r", "k"), ("r", "w")]


class TestAggregateAndSort:
    def _scan(self):
        _, table = make_table(
            [(i % 3, float(i)) for i in range(9)], page_capacity=5
        )
        return SeqScan(table, "t", WorkAccount())

    def test_hash_aggregate_groups(self):
        scan = self._scan()
        agg = HashAggregate(
            scan,
            group_exprs=[slot_expr(0)],
            aggregates=[
                AggSpec("COUNT", arg=None),
                AggSpec("SUM", arg=slot_expr(1)),
            ],
            layout=Layout(
                [ColumnSlot(None, "k"), ColumnSlot(None, "n"), ColumnSlot(None, "s")]
            ),
        )
        rows = sorted(rows_of(agg))
        assert rows == [(0, 3, 9.0), (1, 3, 12.0), (2, 3, 15.0)]

    def test_global_aggregate_empty_input(self):
        _, table = make_table([])
        scan = SeqScan(table, "t", WorkAccount())
        agg = HashAggregate(
            scan,
            group_exprs=[],
            aggregates=[AggSpec("COUNT", None), AggSpec("MAX", slot_expr(0))],
            layout=Layout([ColumnSlot(None, "n"), ColumnSlot(None, "m")]),
        )
        assert list(rows_of(agg)) == [(0, None)]

    def test_distinct_aggregate(self):
        scan = self._scan()
        agg = HashAggregate(
            scan,
            group_exprs=[],
            aggregates=[AggSpec("COUNT", slot_expr(0), distinct=True)],
            layout=Layout([ColumnSlot(None, "n")]),
        )
        assert list(rows_of(agg)) == [(3,)]

    def test_agg_spec_validation(self):
        with pytest.raises(Exception):
            AggSpec("MEDIAN", slot_expr(0))
        with pytest.raises(Exception):
            AggSpec("SUM", None)

    def test_sort_multi_key(self):
        scan = self._scan()
        op = Sort(
            scan,
            keys=[
                (slot_expr(0), False),
                (slot_expr(1), True),
            ],
            rows_per_page=5,
        )
        rows = list(rows_of(op))
        assert [r[0] for r in rows] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert rows[0][1] > rows[1][1] > rows[2][1]

    def test_sort_charges_spill(self):
        scan = self._scan()
        op = Sort(scan, keys=[(slot_expr(0), False)], rows_per_page=5)
        list(rows_of(op))
        # 2 scan pages + 2 * ceil(9/5) sort pages.
        assert scan.account.total == pytest.approx(2 + 4)

    def test_sort_requires_keys(self):
        with pytest.raises(ValueError):
            Sort(self._scan(), keys=[])
