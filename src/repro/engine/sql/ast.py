"""Abstract syntax trees for SQL statements and expressions.

Expression nodes are shared by the parser, the planner (which binds them to
row layouts) and the evaluator.  Statement nodes are plain dataclasses the
planner consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (number, string, boolean or NULL)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference, e.g. ``p.retailprice``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operation: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation: ``NOT x`` or ``-x``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A scalar or aggregate function call.

    ``distinct`` only applies to aggregates (``COUNT(DISTINCT x)``).
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``x [NOT] IN (e1, e2, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    """``x [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    """``x [NOT] LIKE pattern``; the pattern is any expression, per row."""

    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a scalar value (may be correlated)."""

    select: "Select"


@dataclass(frozen=True)
class ExistsSubquery(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``x [NOT] IN (SELECT ...)``."""

    operand: Expr
    select: "Select"
    negated: bool = False


#: Aggregate function names recognised by the planner.
AGGREGATE_FUNCTIONS = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})

#: The expression nodes that carry a SELECT of their own.
SUBQUERY_NODES = (ScalarSubquery, ExistsSubquery, InSubquery)

#: Per node type, the fields holding child expressions in the node's own
#: scope: an expression, ``None``, or a tuple of expressions or of
#: expression pairs.  Subquery bodies are opaque -- of the subquery nodes
#: only ``InSubquery``'s operand belongs to the enclosing scope.  Every
#: walker below reads this table, so a new node type is one entry here.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    FunctionCall: ("args",),
    IsNull: ("operand",),
    InList: ("operand", "items"),
    Between: ("operand", "low", "high"),
    Like: ("operand", "pattern"),
    Case: ("whens", "else_"),
    InSubquery: ("operand",),
}


def _flatten(value, out: list) -> None:
    if isinstance(value, Expr):
        out.append(value)
    elif value is not None:
        for v in value:
            _flatten(v, out)


def children(expr: Expr) -> tuple[Expr, ...]:
    """The child expressions of *expr* in its own scope, in field order."""
    fields = CHILD_FIELDS.get(type(expr))
    if fields is None:
        return ()
    out: list[Expr] = []
    for name in fields:
        _flatten(getattr(expr, name), out)
    return tuple(out)


def _is_aggregate(expr: Expr) -> bool:
    return (
        isinstance(expr, FunctionCall)
        and expr.name.upper() in AGGREGATE_FUNCTIONS
    )


def contains_aggregate(expr: Expr) -> bool:
    """Whether *expr* contains an aggregate function call (at this level --
    subquery internals do not count)."""
    return _is_aggregate(expr) or any(
        contains_aggregate(c) for c in children(expr)
    )


def contains_subquery(expr: Expr) -> bool:
    """Whether *expr* contains a subquery node anywhere in its own scope."""
    return isinstance(expr, SUBQUERY_NODES) or any(
        contains_subquery(c) for c in children(expr)
    )


def collect_column_refs(
    expr: Expr, out: Optional[list[ColumnRef]] = None
) -> list[ColumnRef]:
    """All column references in *expr*, not descending into subqueries."""
    if out is None:
        out = []
    if isinstance(expr, ColumnRef):
        out.append(expr)
    else:
        for c in children(expr):
            collect_column_refs(c, out)
    return out


def collect_aggregates(
    expr: Expr, out: Optional[list[FunctionCall]] = None
) -> list[FunctionCall]:
    """Aggregate calls in *expr*, deduplicated by AST equality.

    Does not descend into an aggregate's own arguments (nesting is the
    planner's error to raise) nor into subquery bodies.
    """
    if out is None:
        out = []
    if _is_aggregate(expr):
        if expr not in out:
            out.append(expr)
    else:
        for c in children(expr):
            collect_aggregates(c, out)
    return out


def transform_expr(expr: Expr, visit) -> Expr:
    """Top-down structural rewrite of an expression tree.

    ``visit(node)`` may return a replacement expression -- descent stops
    there -- or ``None`` to rebuild the node from transformed children
    (the node itself when no child changed).  Subquery bodies are opaque.
    """
    replacement = visit(expr)
    if replacement is not None:
        return replacement
    fields = CHILD_FIELDS.get(type(expr))
    if fields is None:
        return expr
    changes = {}
    for name in fields:
        old = getattr(expr, name)
        new = _transform_field(old, visit)
        if new is not old:
            changes[name] = new
    return replace(expr, **changes) if changes else expr


def _transform_field(value, visit):
    if isinstance(value, Expr):
        return transform_expr(value, visit)
    if value is None:
        return None
    new = tuple(_transform_field(v, visit) for v in value)
    return value if all(a is b for a, b in zip(new, value)) else new


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Break a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts) -> Optional[Expr]:
    """AND together a sequence of conjuncts (``None`` when empty)."""
    result: Optional[Expr] = None
    for c in conjuncts:
        result = c if result is None else BinaryOp("AND", result, c)
    return result


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable:
    """``FROM (SELECT ...) alias`` -- a subquery used as a table."""

    select: object  # Select | Union
    alias: str

    @property
    def binding(self) -> str:
        """The name this derived table is referred to by."""
        return self.alias


@dataclass(frozen=True)
class Join:
    """An explicit ``A JOIN B ON cond`` (INNER or CROSS)."""

    left: "FromItem"
    right: object  # TableRef | DerivedTable
    condition: Optional[Expr]  # None for CROSS JOIN
    kind: str = "INNER"


FromItem = "TableRef | Join"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY entry."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT statement."""

    items: tuple[SelectItem, ...]
    from_items: tuple[object, ...] = ()  # TableRef | Join, comma-separated
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class Union:
    """``SELECT ... UNION [ALL] SELECT ...`` chains.

    ``branches`` holds the member selects; ``all_flags[i]`` records whether
    the joint between branch ``i`` and ``i+1`` was ``UNION ALL``.  A final
    ORDER BY / LIMIT applies to the whole union.
    """

    branches: tuple[Select, ...]
    all_flags: tuple[bool, ...]
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def deduplicate(self) -> bool:
        """True if any joint is a plain UNION (SQL dedups the whole result)."""
        return any(not flag for flag in self.all_flags)


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO table [(cols)] VALUES (...), (...)``."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class ColumnDef:
    """One column definition inside CREATE TABLE."""

    name: str
    type_name: str
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (col type [NOT NULL], ...)``."""

    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    """``CREATE INDEX name ON table (column)``."""

    name: str
    table: str
    column: str


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE name``."""

    name: str


@dataclass(frozen=True)
class Update:
    """``UPDATE table SET col = expr [, ...] [WHERE expr]``."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM table [WHERE expr]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN <select-or-union>``."""

    statement: object  # Select | Union


@dataclass(frozen=True)
class Analyze:
    """``ANALYZE [table]`` -- collect optimizer statistics."""

    table: Optional[str] = None


Statement = (
    "Select | Union | Insert | CreateTable | CreateIndex | DropTable | "
    "Update | Delete"
)
