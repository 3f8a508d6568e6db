"""The system catalog: tables, indexes, and their statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.engine.errors import CatalogError
from repro.engine.index import BTreeIndex
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.engine.storage import DEFAULT_PAGE_CAPACITY, RID, HeapFile


@dataclass
class Table:
    """One stored table: schema, heap file, indexes, statistics."""

    schema: TableSchema
    heap: HeapFile
    indexes: dict[str, BTreeIndex] = field(default_factory=dict)
    stats: TableStats | None = None

    @property
    def name(self) -> str:
        """Table name."""
        return self.schema.name

    def insert(self, values: Sequence[Any]) -> RID:
        """Validate, store and index one row."""
        row = self.schema.validate_row(values)
        rid = self.heap.append(row)
        for index in self.indexes.values():
            pos = self.schema.column_position(index.column)
            index.insert(row[pos], rid)
        self.stats = None  # stored stats are stale now
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; returns the count inserted."""
        n = 0
        for values in rows:
            self.insert(values)
            n += 1
        return n

    def index_on(self, column: str) -> BTreeIndex | None:
        """The index covering *column*, if any."""
        target = column.lower()
        for index in self.indexes.values():
            if index.column.lower() == target:
                return index
        return None


class Catalog:
    """All tables and indexes of one database."""

    def __init__(self, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        if page_capacity < 1:
            raise CatalogError("page_capacity must be >= 1")
        self.page_capacity = page_capacity
        self._tables: dict[str, Table] = {}

    def create_table(
        self, schema: TableSchema, page_capacity: int | None = None
    ) -> Table:
        """Register a new table.

        *page_capacity* overrides the catalog-wide default for this table
        (benchmarks sweep page sizes per table without rebuilding the
        database).

        Raises
        ------
        CatalogError
            If a table of that name already exists or the capacity is
            invalid.
        """
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        if page_capacity is not None and page_capacity < 1:
            raise CatalogError("page_capacity must be >= 1")
        table = Table(schema=schema, heap=HeapFile(page_capacity or self.page_capacity))
        self._tables[key] = table
        return table

    def adopt_table(self, table: Table) -> Table:
        """Register an already-built table (heap, indexes and statistics).

        The table is shared, not copied: a mutation through either catalog
        is visible through both.

        Raises
        ------
        CatalogError
            If a table or an index of the same name already exists.
        """
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        taken = {k for t in self._tables.values() for k in t.indexes}
        clash = taken & table.indexes.keys()
        if clash:
            raise CatalogError(f"index {min(clash)!r} already exists")
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name.

        Raises
        ------
        CatalogError
            For an unknown table.
        """
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether *name* exists."""
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        """All tables, in creation order."""
        return list(self._tables.values())

    def create_index(self, name: str, table_name: str, column: str) -> BTreeIndex:
        """Create (and backfill) an index on one column.

        Raises
        ------
        CatalogError
            For unknown table/column or a duplicate index name.
        """
        table = self.table(table_name)
        if not table.schema.has_column(column):
            raise CatalogError(f"no column {column!r} in table {table_name!r}")
        key = name.lower()
        for t in self._tables.values():
            if key in t.indexes:
                raise CatalogError(f"index {name!r} already exists")
        index = BTreeIndex(name=name, table=table.name, column=column)
        pos = table.schema.column_position(column)
        for rid, row in table.heap.scan_rows():
            index.insert(row[pos], rid)
        table.indexes[key] = index
        return index
