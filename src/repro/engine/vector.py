"""Column vectors and late-materialized chunks.

The columnar storage layer (:mod:`repro.engine.storage`) keeps one
:class:`ColumnVector` per column per page; the batch execution path moves
:class:`Chunk` objects -- a set of column vectors plus a *selection* that
names which positions are live -- instead of lists of row tuples.  Filters
narrow the selection without touching the data; row tuples are built only
where an operator genuinely needs whole rows (pipeline breakers and the
query output), via :meth:`Chunk.tuples`.

A :class:`ColumnVector` is a plain ``list`` subclass carrying two pieces of
metadata maintained incrementally on append: a type *kind* (``"int"``,
``"float"``, ``"num"`` for a mix of the two, ``"other"``, or ``"empty"``)
and a null flag.  Aggregates use the metadata to take C-speed fast paths
over provably-clean columns while keeping results bit-identical to row
mode (see :meth:`_AggState.update_batch`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union


# Kind lattice: merging two observations.  bool is deliberately "other"
# (it is not numeric to the engine's type rules despite being an int
# subclass), and int+float widens to "num".
_KIND_MERGE = {
    ("int", "float"): "num",
    ("float", "int"): "num",
    ("int", "num"): "num",
    ("num", "int"): "num",
    ("float", "num"): "num",
    ("num", "float"): "num",
}


class ColumnVector(list):
    """One column's values with incrementally-maintained type metadata."""

    __slots__ = ("kind", "has_null")

    def __init__(self, values: Sequence = ()) -> None:
        super().__init__(values)
        self.kind = "empty"
        self.has_null = False
        for value in self:
            self._classify(value)

    @classmethod
    def with_meta(
        cls, data: Sequence, kind: str, has_null: bool
    ) -> "ColumnVector":
        """Build a vector from *data* with metadata already known.

        Used for subsets of an existing vector: the parent's metadata is a
        sound (conservative) description of any subset.
        """
        out = cls.__new__(cls)
        list.__init__(out, data)
        out.kind = kind
        out.has_null = has_null
        return out

    def _classify(self, value) -> None:
        if value is None:
            self.has_null = True
            return
        tp = type(value)
        if tp is int:
            new = "int"
        elif tp is float:
            new = "float"
        else:
            new = "other"
        kind = self.kind
        if kind == new:
            return
        if kind == "empty":
            self.kind = new
        elif kind == "other" or new == "other":
            self.kind = "other"
        else:
            self.kind = _KIND_MERGE.get((kind, new), "other")

    @property
    def is_clean_numeric(self) -> bool:
        """All values are non-null ints/floats (aggregate fast paths)."""
        return not self.has_null and self.kind in ("int", "float", "num")

    def push(self, value) -> None:
        """Append one value, maintaining metadata."""
        self.append(value)
        self._classify(value)

    def take(self, sel: Union[range, Sequence[int]]) -> "ColumnVector":
        """Gather the positions in *sel* into a new vector.

        Metadata carries over (a subset of a clean column is clean).
        Contiguous range selections use a C-level slice; everything else
        is a list comprehension.
        """
        if type(sel) is range and sel.step == 1:
            data = list.__getitem__(self, slice(sel.start, sel.stop))
        else:
            data = [self[i] for i in sel]
        return ColumnVector.with_meta(data, self.kind, self.has_null)


def take_values(column: list, idxs: Union[range, Sequence[int]]) -> list:
    """Gather *idxs* from any column-like list, preserving metadata."""
    if type(column) is ColumnVector:
        return column.take(idxs)
    return [column[i] for i in idxs]


class Chunk:
    """A batch of rows in columnar form: column vectors plus a selection.

    ``sel`` is ``None`` (every position of the columns is live, in order),
    a ``range`` (a contiguous slice -- how scans split oversized pages), or
    a list of positions (how filters narrow a chunk).  Chunks behave as a
    sequence of row tuples (``len``, iteration, indexing, slicing), but the
    tuples are only built on first demand (:meth:`tuples`) and the result
    is cached, so operators that never look at whole rows never pay for
    them.

    A chunk must have at least one column; zero-arity rows stay on the
    plain ``list[tuple]`` batch representation.
    """

    __slots__ = ("columns", "sel", "_tuples", "source")

    def __init__(
        self,
        columns: Sequence[list],
        sel: Optional[Union[range, list]] = None,
        source=None,
    ) -> None:
        if not columns:
            raise ValueError("a Chunk requires at least one column")
        self.columns = columns
        self.sel = sel
        self._tuples: Optional[list] = None
        #: For whole-page chunks: the storage page, whose lazily-cached
        #: ``rows`` materialization is shared instead of re-zipping the
        #: columns on every scan.
        self.source = source

    def __len__(self) -> int:
        sel = self.sel
        return len(self.columns[0]) if sel is None else len(sel)

    def column(self, idx: int) -> list:
        """Column *idx* restricted to the selection.

        With no selection this is the stored column itself (zero copy);
        callers must not mutate it.
        """
        col = self.columns[idx]
        sel = self.sel
        if sel is None:
            return col
        return take_values(col, sel)

    def take(self, positions: Sequence[int]) -> "Chunk":
        """A sub-chunk of the given *relative* positions (filter narrowing).

        Selections compose without touching the column data.
        """
        sel = self.sel
        if sel is None:
            return Chunk(self.columns, list(positions))
        return Chunk(self.columns, [sel[i] for i in positions])

    def tuples(self) -> list:
        """The selected rows as tuples (cached after the first call)."""
        out = self._tuples
        if out is None:
            sel = self.sel
            if sel is None:
                if self.source is not None:
                    out = self._tuples = self.source.rows
                    return out
                cols = self.columns
            else:
                cols = [take_values(col, sel) for col in self.columns]
            out = self._tuples = list(zip(*cols))
        return out

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tuples())

    def __getitem__(self, item):
        if isinstance(item, slice):
            sel = self.sel
            if sel is None:
                sel = range(len(self.columns[0]))
            return Chunk(self.columns, sel[item])
        return self.tuples()[item]
