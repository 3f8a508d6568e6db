"""Table access operators: sequential scan and index scan.

Scans are also where progress tracking hooks in: each scan knows its total
page (or probe) budget and how much it has consumed, so the executor's
progress tracker can extrapolate remaining work from the *driver* scan.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.engine.catalog import Table
from repro.engine.expr import BoundExpr, Env, Layout, eval_row
from repro.engine.index import BTreeIndex
from repro.engine.operators.base import Operator, WorkAccount
from repro.engine.vector import Chunk


class SeqScan(Operator):
    """Full-table scan: charges one U per heap page.

    The scan is the engine's checkpoint anchor: its consumption state is
    two integers (rows handed out, pages already paid for), so a restored
    scan can skip straight back to where a crashed attempt stopped without
    re-reading -- or re-charging -- the pages it already consumed.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        account: WorkAccount,
    ) -> None:
        layout = Layout.for_table(binding, table.schema.column_names)
        super().__init__(layout, account)
        self.table = table
        self.binding = binding
        #: Pages read during the current (or last) iteration.
        self.pages_read = 0
        #: Rows yielded from the page currently being consumed.
        self._rows_in_page = 0
        self._page_size = 0
        #: Rows handed out during the current iteration.
        self._rows_out = 0
        #: Restore state, consumed by the first ``batches()`` call after it.
        self._resume: dict | None = None

    @property
    def total_pages(self) -> int:
        """Heap pages this scan will read in one full pass."""
        return self.table.heap.page_count

    def progress_fraction(self) -> float:
        """Fraction of the current pass completed (for the driver tracker).

        Row-granular: a page counts fractionally while its rows are still
        being consumed downstream, which keeps driver-based extrapolation
        accurate even when per-row work (e.g. a correlated subquery probe)
        dominates the page read itself.
        """
        total = self.total_pages
        if total == 0:
            return 1.0
        done = self.pages_read - 1 if self.pages_read > 0 else 0
        if self._page_size > 0 and self.pages_read > 0:
            done += self._rows_in_page / self._page_size
        return min(done / total, 1.0)

    def checkpoint(self) -> dict | None:
        return {"rows_out": self._rows_out, "pages_paid": self.pages_read}

    def restore(self, state: dict) -> None:
        self._resume = {
            "rows_out": int(state["rows_out"]),
            "pages_paid": int(state["pages_paid"]),
        }

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        """Page-aligned columnar batch scan.

        Batches never span pages: a page is charged exactly when its first
        row enters a batch, so a consumer that stops early (LIMIT) charges
        only the pages it reached, whatever the width.  ``batch_size`` only
        splits pages that are larger than it.

        Each batch is a :class:`Chunk` sharing the page's column vectors
        (zero copy for a whole page; a ``range`` selection for partial
        pages, including resume offsets that land mid-page).  Zero-column
        pages fall back to plain row lists.
        """
        resume = self._resume
        self._resume = None
        skip = resume["rows_out"] if resume else 0
        paid = resume["pages_paid"] if resume else 0
        self.pages_read = 0
        self._rows_out = skip
        cap = max(self.batch_size, 1)
        for _, page in self.table.heap.scan_pages():
            if paid > 0:
                paid -= 1
            else:
                self.account.charge(1.0)
            self.pages_read += 1
            columns = page.columns
            n = len(page)
            self._page_size = max(n, 1)
            self._rows_in_page = 0
            start = 0
            if skip > 0:
                start = min(skip, n)
                skip -= start
                self._rows_in_page = start
            while start < n:
                end = min(start + cap, n)
                if not columns:
                    batch = page.rows[start:end]
                elif start == 0 and end == n:
                    batch = Chunk(columns, source=page)
                else:
                    batch = Chunk(columns, range(start, end))
                # Attribute downstream work on this batch to its last row,
                # keeping the driver fraction within one batch of truth.
                self._rows_in_page = end
                self._rows_out += end - start
                yield batch
                start = end

    def describe(self) -> str:
        heap = self.table.heap
        return (
            f"SeqScan {self.table.name} as {self.binding} "
            f"[pages={heap.page_count} cap={heap.page_capacity}]"
        )


class IndexScan(Operator):
    """Equality index probe, followed by heap fetches.

    The probe value is a bound expression evaluated in the *enclosing*
    environment -- a constant for plain queries, an outer-column reference
    for correlated subqueries (the paper's workload).  Charges the B-tree
    descent plus one U per distinct heap page fetched.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        index: BTreeIndex,
        probe: BoundExpr,
        account: WorkAccount,
        probe_description: str = "?",
    ) -> None:
        layout = Layout.for_table(binding, table.schema.column_names)
        super().__init__(layout, account)
        self.table = table
        self.binding = binding
        self.index = index
        self.probe = probe
        self.probe_description = probe_description
        #: Completed probes (one per execution of this scan).
        self.probes_done = 0

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        # One row per batch: each heap-page charge lands just before the
        # row that needs it, so a consumer that stops early (LIMIT, EXISTS)
        # is never charged for a page it did not reach.
        key = eval_row(self.probe, outer_env)
        rids = self.index.search(key)
        self.account.charge(self.index.lookup_cost(len(rids)))
        pages_seen: set[int] = set()
        for rid in rids:
            if rid.page_no not in pages_seen:
                pages_seen.add(rid.page_no)
                self.account.charge(1.0)
            yield [self.table.heap.fetch(rid)]
        self.probes_done += 1

    def describe(self) -> str:
        return (
            f"IndexScan {self.table.name} as {self.binding} "
            f"using {self.index.name} ({self.index.column} = {self.probe_description})"
        )


class RangeIndexScan(Operator):
    """Range scan over a B-tree index: ``low <op> col <op> high``.

    Bounds are constants (``None`` for an open end).  Charges the
    descent, one leaf page per ``leaf_capacity`` keys traversed, and one U
    per distinct heap page fetched.  Rows come out in index-key order.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        index: BTreeIndex,
        account: WorkAccount,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bounds_description: str = "?",
    ) -> None:
        layout = Layout.for_table(binding, table.schema.column_names)
        super().__init__(layout, account)
        self.table = table
        self.binding = binding
        self.index = index
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.bounds_description = bounds_description

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        # One row per batch, for the reason given in IndexScan.batches.
        self.account.charge(float(self.index.height()))
        keys_seen = 0
        pages_seen: set[int] = set()
        for _, rids in self.index.search_range(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        ):
            keys_seen += 1
            if keys_seen % self.index.leaf_capacity == 1 and keys_seen > 1:
                self.account.charge(1.0)  # next leaf page
            for rid in rids:
                if rid.page_no not in pages_seen:
                    pages_seen.add(rid.page_no)
                    self.account.charge(1.0)
                yield [self.table.heap.fetch(rid)]

    def describe(self) -> str:
        return (
            f"RangeIndexScan {self.table.name} as {self.binding} "
            f"using {self.index.name} ({self.bounds_description})"
        )
