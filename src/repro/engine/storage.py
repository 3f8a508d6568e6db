"""Page-based columnar heap storage.

Rows live in fixed-capacity pages; **reading or writing one page costs one U**
(the paper's work unit: "the amount of work required to process one page of
bytes").  The heap file exposes page-granular scans so operators can account
work faithfully, plus RID-based fetches for index lookups.

Pages are **columnar**: each page keeps one :class:`ColumnVector` per column
(arity inferred from the first row appended), so the vectorized batch path
can hand whole column vectors to expression evaluation and aggregation
without building row tuples.  The row-tuple view (:attr:`Page.rows`) is a
lazily-built, cached materialization used by whole-row consumers such as
``scan_rows`` and whole-page ``Chunk.tuples()``; sparse RID
fetches build a single tuple via :meth:`Page.row` without materializing the
page.  The layout changes how bytes are read, never what a page *is*: every
work charge lands at exactly the same point as under the row-tuple layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.engine.errors import ExecutionError
from repro.engine.vector import ColumnVector

#: Default number of rows per page.  Small enough that realistic tables span
#: many pages, large enough that per-page Python overhead stays low.
DEFAULT_PAGE_CAPACITY = 50


@dataclass(frozen=True)
class RID:
    """Row identifier: (page number, slot within the page)."""

    page_no: int
    slot: int


class Page:
    """A fixed-capacity columnar container of rows.

    ``columns`` is ``None`` until the first append fixes the arity; pages
    of zero-column rows keep ``columns == []`` and only count rows.
    """

    __slots__ = ("capacity", "columns", "_count", "_rows")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("page capacity must be >= 1")
        self.capacity = capacity
        self.columns: list[ColumnVector] | None = None
        self._count = 0
        self._rows: list[tuple] | None = None

    @property
    def full(self) -> bool:
        """Whether the page has no free slots."""
        return self._count >= self.capacity

    def append(self, row: tuple) -> int:
        """Store *row*; return its slot number."""
        if self._count >= self.capacity:
            raise ExecutionError("page overflow")
        columns = self.columns
        if columns is None:
            columns = self.columns = [ColumnVector() for _ in row]
        elif len(row) != len(columns):
            raise ExecutionError(
                f"row arity {len(row)} does not match page arity {len(columns)}"
            )
        for column, value in zip(columns, row):
            column.push(value)
        self._count += 1
        self._rows = None
        return self._count - 1

    @property
    def rows(self) -> list[tuple]:
        """The page's rows as tuples (lazily materialized, then cached)."""
        rows = self._rows
        if rows is None:
            if self.columns:
                rows = list(zip(*self.columns))
            else:
                rows = [()] * self._count
            self._rows = rows
        return rows

    def row(self, slot: int) -> tuple:
        """Build the single tuple at *slot* (for sparse RID fetches).

        Raises
        ------
        ExecutionError
            For an out-of-range slot.
        """
        if not 0 <= slot < self._count:
            raise ExecutionError(f"slot {slot} out of range")
        rows = self._rows
        if rows is not None:
            return rows[slot]
        if not self.columns:
            return ()
        return tuple(column[slot] for column in self.columns)

    def __len__(self) -> int:
        return self._count


class HeapFile:
    """An append-only sequence of pages holding one table's rows."""

    def __init__(self, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        if page_capacity < 1:
            raise ValueError("page_capacity must be >= 1")
        self.page_capacity = page_capacity
        self._pages: list[Page] = []
        self._row_count = 0

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def row_count(self) -> int:
        """Number of stored rows."""
        return self._row_count

    def append(self, row: Sequence[Any]) -> RID:
        """Append one row; returns its :class:`RID`."""
        stored = tuple(row)
        if not self._pages or self._pages[-1].full:
            self._pages.append(Page(self.page_capacity))
        slot = self._pages[-1].append(stored)
        self._row_count += 1
        return RID(page_no=len(self._pages) - 1, slot=slot)

    def page(self, page_no: int) -> Page:
        """The page numbered *page_no*.

        Raises
        ------
        ExecutionError
            For an out-of-range page number.
        """
        if not 0 <= page_no < len(self._pages):
            raise ExecutionError(f"page {page_no} out of range")
        return self._pages[page_no]

    def fetch(self, rid: RID) -> tuple:
        """The row stored at *rid*.

        Raises
        ------
        ExecutionError
            For a dangling RID.
        """
        page = self.page(rid.page_no)
        if not 0 <= rid.slot < len(page):
            raise ExecutionError(f"slot {rid.slot} out of range on page {rid.page_no}")
        return page.row(rid.slot)

    def scan_pages(self) -> Iterator[tuple[int, Page]]:
        """Iterate ``(page_no, page)`` pairs in storage order."""
        return iter(enumerate(self._pages))

    def scan_rows(self) -> Iterator[tuple[RID, tuple]]:
        """Iterate all rows with their RIDs (no work accounting here)."""
        for page_no, page in enumerate(self._pages):
            for slot, row in enumerate(page.rows):
                yield RID(page_no, slot), row
