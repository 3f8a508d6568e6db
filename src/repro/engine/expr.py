"""Expression binding and evaluation.

The planner *binds* AST expressions against a row :class:`Layout`, producing
batch closures: ``fn(rows, outer_env) -> list`` evaluates the expression
over a whole batch -- a list of row tuples or a columnar :class:`Chunk` --
and returns one value per row.  Slot indices are resolved at bind time;
``outer_env`` is the :class:`Env` chain of enclosing rows that correlated
references read (``None`` at the top level).  :func:`eval_row` evaluates a
closure on a single row.

Semantics follow SQL: three-valued logic for AND/OR/NOT, NULL propagation
through arithmetic and comparisons, ``LIKE`` with ``%``/``_`` wildcards,
and integer/float arithmetic with true division yielding floats.

Evaluation is *selective*: AND/OR right-hand sides, CASE branches and
IN-list items are only evaluated on the rows whose result they can still
decide, so a data-dependent error in a dead branch (a division by zero, a
scalar subquery returning two rows) never surfaces, and a subquery in a
dead branch never runs.  Subqueries are batch nodes like any other: a
scalar, EXISTS or IN subquery runs once per row that reaches it, in row
order, with that row as the innermost outer scope of its run.  That is
exactly the set of runs -- and so exactly the work -- of evaluating the
expression one row at a time; only the order of charges inside one batch
differs, as each subquery node finishes its rows before the next node
starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.engine.errors import ExecutionError, PlanError, SqlTypeError
from repro.engine.sql import ast
from repro.engine.types import compare_values, is_numeric
from repro.engine.vector import Chunk

# ---------------------------------------------------------------------------
# Row layout and evaluation environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSlot:
    """One output column of an operator: its binding name and column name."""

    qualifier: Optional[str]
    name: str

    def matches(self, name: str, qualifier: Optional[str]) -> bool:
        """Whether this slot answers to ``[qualifier.]name``."""
        if self.name.lower() != name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()


class Layout:
    """The ordered column slots of rows produced by an operator."""

    def __init__(self, slots: Sequence[ColumnSlot]) -> None:
        self.slots = list(slots)

    @classmethod
    def for_table(cls, binding: str, column_names: Sequence[str]) -> "Layout":
        """Layout of a base-table scan bound as *binding*."""
        return cls([ColumnSlot(binding, name) for name in column_names])

    def __len__(self) -> int:
        return len(self.slots)

    def merge(self, other: "Layout") -> "Layout":
        """Concatenate two layouts (row tuples concatenate likewise)."""
        return Layout(self.slots + other.slots)

    def try_resolve(self, name: str, qualifier: Optional[str]) -> Optional[int]:
        """Slot index of ``[qualifier.]name``, or None if absent.

        Raises
        ------
        PlanError
            If the reference is ambiguous.
        """
        matches = [
            i for i, slot in enumerate(self.slots) if slot.matches(name, qualifier)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise PlanError(f"ambiguous column reference {ref!r}")
        return matches[0]

    def resolve(self, name: str, qualifier: Optional[str]) -> int:
        """Slot index of ``[qualifier.]name``.

        Raises
        ------
        PlanError
            If the column is unknown or ambiguous.
        """
        idx = self.try_resolve(name, qualifier)
        if idx is None:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise PlanError(f"unknown column {ref!r}")
        return idx


class Env:
    """Evaluation environment: the current row, linked to outer rows."""

    __slots__ = ("row", "parent")

    def __init__(self, row: tuple, parent: Optional["Env"] = None) -> None:
        self.row = row
        self.parent = parent

    def ancestor(self, depth: int) -> "Env":
        """The environment *depth* levels up (0 = this one)."""
        env = self
        for _ in range(depth):
            if env.parent is None:
                raise ExecutionError("correlated reference escaped its scope")
            env = env.parent
        return env


#: A bound expression: ``(rows, outer_env) -> list`` of values, one per
#: input row.  Bare current-row column references also carry their slot
#: index as a ``.slot`` attribute.
BoundExpr = Callable[[Sequence[tuple], Optional[Env]], list]


def eval_row(fn: BoundExpr, env: Optional[Env]) -> Any:
    """Evaluate *fn* on the single row of *env*.

    *env*'s row is the current row and its parent the outer scope; with no
    *env* the current row is empty (a constant, or an expression bound in
    an empty layout).
    """
    if env is None:
        return fn([()], None)[0]
    return fn([env.row], env.parent)[0]


def slot_expr(idx: int) -> BoundExpr:
    """A closure reading current-row slot *idx*, tagged ``.slot = idx``.

    On a columnar :class:`Chunk` the values are the stored column itself
    (zero copy when the chunk carries no selection); on a plain list of
    row tuples the slot is gathered per row.  Operators with tight per-row
    loops (hash join build, grouped aggregation) read ``.slot`` to index
    the tuple directly instead of materialising a key column.
    """

    def fn(rows, outer_env):
        if type(rows) is Chunk:
            return rows.column(idx)
        return [row[idx] for row in rows]

    fn.slot = idx
    return fn


def _subset(rows, idxs: list):
    """The rows at (relative) positions *idxs*, staying columnar when
    possible.

    Selective evaluation (AND/OR right sides, CASE branches, IN items)
    re-evaluates sub-expressions on row subsets; narrowing a chunk's
    selection keeps those evaluations on column vectors.
    """
    if type(rows) is Chunk:
        return rows.take(idxs)
    return [rows[i] for i in idxs]


class BindContext:
    """Name-resolution scope for binding expressions.

    ``subquery_compiler`` is provided by the planner: it compiles a nested
    SELECT (in this scope) into a runner ``fn(env) -> list[tuple]``.
    """

    def __init__(
        self,
        layout: Layout,
        outer: Optional["BindContext"] = None,
        subquery_compiler: Optional[
            Callable[[ast.Select, "BindContext"], Callable[[Env], list]]
        ] = None,
    ) -> None:
        self.layout = layout
        self.outer = outer
        self.subquery_compiler = subquery_compiler or (
            outer.subquery_compiler if outer else None
        )

    def resolve(self, name: str, qualifier: Optional[str]) -> tuple[int, int]:
        """Resolve a column to ``(depth, slot index)`` walking outer scopes."""
        depth = 0
        ctx: Optional[BindContext] = self
        while ctx is not None:
            idx = ctx.layout.try_resolve(name, qualifier)
            if idx is not None:
                return depth, idx
            ctx = ctx.outer
            depth += 1
        ref = f"{qualifier}.{name}" if qualifier else name
        raise PlanError(f"unknown column {ref!r}")


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_abs(v):
    return None if v is None else abs(v)


def _fn_round(v, digits=0):
    if v is None:
        return None
    result = round(v, int(digits))
    return result


def _fn_floor(v):
    import math

    return None if v is None else math.floor(v)


def _fn_ceil(v):
    import math

    return None if v is None else math.ceil(v)


def _fn_length(v):
    return None if v is None else len(v)


def _fn_upper(v):
    return None if v is None else v.upper()


def _fn_lower(v):
    return None if v is None else v.lower()


def _fn_coalesce(*args):
    for a in args:
        if a is not None:
            return a
    return None


def _fn_nullif(a, b):
    return None if a == b else a


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "ABS": _fn_abs,
    "ROUND": _fn_round,
    "FLOOR": _fn_floor,
    "CEIL": _fn_ceil,
    "CEILING": _fn_ceil,
    "LENGTH": _fn_length,
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "COALESCE": _fn_coalesce,
    "NULLIF": _fn_nullif,
}


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

_CMP_TESTS: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def bind_expr(expr: ast.Expr, ctx: BindContext) -> BoundExpr:
    """Compile *expr* into a batch closure (see module docstring).

    Sub-expressions are bound left to right, so each nested subquery is
    compiled -- and its cost registered with the planner -- exactly once,
    in source order.

    Raises
    ------
    PlanError
        On unknown columns/functions or aggregates in a scalar context.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda rows, outer_env: [value] * len(rows)

    if isinstance(expr, ast.ColumnRef):
        depth, idx = ctx.resolve(expr.name, expr.qualifier)
        if depth == 0:
            return slot_expr(idx)

        def _outer_col(rows, outer_env, depth=depth, idx=idx):
            if outer_env is None:
                raise ExecutionError("correlated reference escaped its scope")
            value = outer_env.ancestor(depth - 1).row[idx]
            return [value] * len(rows)

        return _outer_col

    if isinstance(expr, ast.BinaryOp):
        return _bind_binary(expr, ctx)

    if isinstance(expr, ast.UnaryOp):
        operand = bind_expr(expr.operand, ctx)
        if expr.op == "NOT":
            def _not(rows, outer_env):
                out = []
                for v in operand(rows, outer_env):
                    if v is None:
                        out.append(None)
                    else:
                        _require_bool(v, "NOT")
                        out.append(not v)
                return out

            return _not
        if expr.op == "-":
            def _neg(rows, outer_env):
                out = []
                for v in operand(rows, outer_env):
                    if v is None:
                        out.append(None)
                    elif not is_numeric(v):
                        raise SqlTypeError(f"cannot negate {type(v).__name__}")
                    else:
                        out.append(-v)
                return out

            return _neg
        raise PlanError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.FunctionCall):
        name = expr.name.upper()
        if name in ast.AGGREGATE_FUNCTIONS:
            raise PlanError(f"aggregate {name} is not allowed in this context")
        fn = SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise PlanError(f"unknown function {name!r}")
        args = [bind_expr(a, ctx) for a in expr.args]

        def _call(rows, outer_env, fn=fn, args=args, name=name):
            cols = [a(rows, outer_env) for a in args]
            try:
                if not cols:
                    return [fn() for _ in range(len(rows))]
                return [fn(*vals) for vals in zip(*cols)]
            except (TypeError, AttributeError) as exc:
                raise SqlTypeError(f"bad arguments to {name}: {exc}") from exc

        return _call

    if isinstance(expr, ast.IsNull):
        operand = bind_expr(expr.operand, ctx)
        if expr.negated:
            return lambda rows, outer_env: [
                v is not None for v in operand(rows, outer_env)
            ]
        return lambda rows, outer_env: [v is None for v in operand(rows, outer_env)]

    if isinstance(expr, ast.InList):
        operand = bind_expr(expr.operand, ctx)
        items = [bind_expr(i, ctx) for i in expr.items]
        negated = expr.negated

        def _in(rows, outer_env):
            values = operand(rows, outer_env)
            n = len(values)
            out: list = [None] * n
            # NULL operands decide to NULL without evaluating any item.
            pending = [i for i in range(n) if values[i] is not None]
            saw_null = [False] * n
            for item in items:
                if not pending:
                    break
                matches = item(_subset(rows, pending), outer_env)
                still = []
                for w, i in zip(matches, pending):
                    if w is None:
                        saw_null[i] = True
                        still.append(i)
                    elif compare_values(values[i], w) == 0:
                        out[i] = not negated
                    else:
                        still.append(i)
                pending = still
            for i in pending:
                out[i] = None if saw_null[i] else negated
            return out

        return _in

    if isinstance(expr, ast.Between):
        operand = bind_expr(expr.operand, ctx)
        low = bind_expr(expr.low, ctx)
        high = bind_expr(expr.high, ctx)
        negated = expr.negated

        def _between(rows, outer_env):
            values = operand(rows, outer_env)
            lows = low(rows, outer_env)
            highs = high(rows, outer_env)
            out = []
            for v, lo, hi in zip(values, lows, highs):
                c1 = compare_values(v, lo)
                c2 = compare_values(v, hi)
                if c1 is None or c2 is None:
                    out.append(None)
                else:
                    result = c1 >= 0 and c2 <= 0
                    out.append((not result) if negated else result)
            return out

        return _between

    if isinstance(expr, ast.Like):
        operand = bind_expr(expr.operand, ctx)
        pattern = bind_expr(expr.pattern, ctx)
        negated = expr.negated
        cache: dict[str, re.Pattern] = {}

        def _like(rows, outer_env):
            values = operand(rows, outer_env)
            patterns = pattern(rows, outer_env)
            out = []
            for v, p in zip(values, patterns):
                if v is None or p is None:
                    out.append(None)
                    continue
                if not isinstance(v, str) or not isinstance(p, str):
                    raise SqlTypeError("LIKE requires text operands")
                rx = cache.get(p)
                if rx is None:
                    rx = re.compile(_like_to_regex(p), re.DOTALL)
                    cache[p] = rx
                result = rx.fullmatch(v) is not None
                out.append((not result) if negated else result)
            return out

        return _like

    if isinstance(expr, ast.Case):
        whens = [
            (bind_expr(c, ctx), bind_expr(v, ctx)) for c, v in expr.whens
        ]
        else_ = bind_expr(expr.else_, ctx) if expr.else_ is not None else None

        def _case(rows, outer_env):
            n = len(rows)
            out: list = [None] * n
            pending = list(range(n))
            for cond, value in whens:
                if not pending:
                    break
                verdicts = cond(_subset(rows, pending), outer_env)
                hits = [i for i, c in zip(pending, verdicts) if c is True]
                if hits:
                    results = value(_subset(rows, hits), outer_env)
                    for i, v in zip(hits, results):
                        out[i] = v
                pending = [i for i, c in zip(pending, verdicts) if c is not True]
            if else_ is not None and pending:
                results = else_(_subset(rows, pending), outer_env)
                for i, v in zip(pending, results):
                    out[i] = v
            return out

        return _case

    if isinstance(expr, ast.SUBQUERY_NODES):
        return _bind_subquery(expr, ctx)

    if isinstance(expr, ast.Star):
        raise PlanError("'*' is only allowed at the top of a select list")

    raise PlanError(f"cannot bind expression {expr!r}")


def _bind_subquery(expr: ast.Expr, ctx: BindContext) -> BoundExpr:
    """Compile a scalar, EXISTS or IN subquery node.

    The planner's runner executes the subquery once per call, with the
    given :class:`Env` as its outer scope; here it is called once per
    input row, in row order.
    """
    if ctx.subquery_compiler is None:
        raise PlanError("subqueries are not allowed in this context")

    if isinstance(expr, ast.ScalarSubquery):
        runner = ctx.subquery_compiler(expr.select, ctx)

        def _scalar(rows, outer_env):
            out = []
            for row in rows:
                result = runner(Env(row, outer_env))
                if not result:
                    out.append(None)
                    continue
                if len(result) > 1:
                    raise ExecutionError(
                        "scalar subquery returned more than one row"
                    )
                if len(result[0]) != 1:
                    raise ExecutionError(
                        "scalar subquery must return exactly one column"
                    )
                out.append(result[0][0])
            return out

        return _scalar

    if isinstance(expr, ast.ExistsSubquery):
        runner = ctx.subquery_compiler(expr.select, ctx)
        negated = expr.negated

        def _exists(rows, outer_env):
            found = [bool(runner(Env(row, outer_env))) for row in rows]
            return [not f for f in found] if negated else found

        return _exists

    operand = bind_expr(expr.operand, ctx)
    runner = ctx.subquery_compiler(expr.select, ctx)
    negated = expr.negated
    # For an uncorrelated subquery the row list is computed once per
    # execution (init-plan), so the O(n)-per-outer-row membership scan can
    # be replaced by a hashed probe built once.
    correlated = getattr(runner, "correlated", True)
    probe_holder: list = [None]

    def _scan(v, rows):
        saw_null = False
        for row in rows:
            if len(row) != 1:
                raise ExecutionError("IN subquery must return one column")
            w = row[0]
            if w is None:
                saw_null = True
            elif compare_values(v, w) == 0:
                return not negated
        if saw_null:
            return None
        return negated

    def _in_subquery(rows, outer_env):
        values = operand(rows, outer_env)
        out = []
        for v, row in zip(values, rows):
            result = runner(Env(row, outer_env))
            if v is None:
                # Over an empty set IN is FALSE (NOT IN TRUE) whatever the
                # operand; otherwise a NULL operand is unknown.
                out.append(negated if not result else None)
            elif correlated:
                out.append(_scan(v, result))
            else:
                probe = probe_holder[0]
                if probe is None:
                    probe = probe_holder[0] = _build_in_probe(
                        result, negated, _scan
                    )
                out.append(probe(v))
        return out

    return _in_subquery


def _value_family(value: Any) -> Optional[str]:
    """The comparison family of a value (bool before int: bools are not
    numeric to ``compare_values``)."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


def _build_in_probe(rows, negated: bool, scan):
    """An O(1) membership probe over a stable uncorrelated IN subquery.

    Must be observationally identical to the ordered *scan*, including
    errors: the scan raises :class:`SqlTypeError` at the first value
    whose comparison family differs from the probe value's -- unless a
    match occurs earlier -- so the probe tracks, per family, the first
    matching index and the first cross-family clash and only answers
    when the match provably precedes the clash.  NaN defeats hashing
    (``compare_values`` treats it as equal to every number, dict lookup
    as equal to nothing), so any NaN on either side falls back to the
    ordered scan.
    """
    if rows and len(rows[0]) != 1:
        def _bad_arity(v):
            raise ExecutionError("IN subquery must return one column")

        return _bad_arity

    match_index: dict[str, dict] = {"num": {}, "str": {}, "bool": {}}
    first_by_family: dict[str, tuple[int, Any]] = {}
    saw_null = False
    have_nan = False
    for i, row in enumerate(rows):
        w = row[0]
        if w is None:
            saw_null = True
            continue
        family = _value_family(w)
        if family is None:
            have_nan = True  # unknown type: scan decides, per row, in order
            continue
        if family == "num" and w != w:
            have_nan = True
            continue
        if family not in first_by_family:
            first_by_family[family] = (i, w)
        bucket = match_index[family]
        if w not in bucket:
            bucket[w] = i

    def probe(v):
        if have_nan or (isinstance(v, float) and v != v):
            return scan(v, rows)
        family = _value_family(v)
        if family is None:
            return scan(v, rows)
        hit = match_index[family].get(v)
        clash = None
        for other, entry in first_by_family.items():
            if other != family and (clash is None or entry[0] < clash[0]):
                clash = entry
        if hit is not None and (clash is None or hit < clash[0]):
            return not negated
        if clash is not None:
            compare_values(v, clash[1])  # raises exactly like the scan
        if saw_null:
            return None
        return negated

    return probe


def _require_bool(value: Any, where: str) -> None:
    if not isinstance(value, bool):
        raise SqlTypeError(f"{where} requires a boolean, got {type(value).__name__}")


def _bind_binary(expr: ast.BinaryOp, ctx: BindContext) -> BoundExpr:
    op = expr.op
    left = bind_expr(expr.left, ctx)
    right = bind_expr(expr.right, ctx)

    if op == "AND":
        def _and(rows, outer_env):
            lv = left(rows, outer_env)
            n = len(lv)
            out: list = [False] * n
            pending = [i for i in range(n) if lv[i] is not False]
            if pending:
                rv = right(_subset(rows, pending), outer_env)
                for r, i in zip(rv, pending):
                    if r is False:
                        continue
                    l = lv[i]
                    if l is None or r is None:
                        out[i] = None
                    else:
                        _require_bool(l, "AND")
                        _require_bool(r, "AND")
                        out[i] = True
            return out

        return _and

    if op == "OR":
        def _or(rows, outer_env):
            lv = left(rows, outer_env)
            n = len(lv)
            out: list = [True] * n
            pending = [i for i in range(n) if lv[i] is not True]
            if pending:
                rv = right(_subset(rows, pending), outer_env)
                for r, i in zip(rv, pending):
                    if r is True:
                        continue
                    l = lv[i]
                    if l is None or r is None:
                        out[i] = None
                    else:
                        _require_bool(l, "OR")
                        _require_bool(r, "OR")
                        out[i] = False
            return out

        return _or

    if op in _CMP_TESTS:
        test = _CMP_TESTS[op]

        def _cmp(rows, outer_env):
            lv = left(rows, outer_env)
            rv = right(rows, outer_env)
            return [
                None if (c := compare_values(l, r)) is None else test(c)
                for l, r in zip(lv, rv)
            ]

        return _cmp

    if op == "||":
        def _concat(rows, outer_env):
            lv = left(rows, outer_env)
            rv = right(rows, outer_env)
            out = []
            for l, r in zip(lv, rv):
                if l is None or r is None:
                    out.append(None)
                    continue
                if not isinstance(l, str) or not isinstance(r, str):
                    raise SqlTypeError("|| requires text operands")
                out.append(l + r)
            return out

        return _concat

    if op in ("+", "-", "*", "/", "%"):
        if op == "+":
            apply = lambda l, r: l + r
        elif op == "-":
            apply = lambda l, r: l - r
        elif op == "*":
            apply = lambda l, r: l * r
        elif op == "/":
            def apply(l, r):
                if r == 0:
                    raise ExecutionError("division by zero")
                return l / r
        else:
            def apply(l, r):
                if r == 0:
                    raise ExecutionError("modulo by zero")
                return l % r

        def _arith(rows, outer_env, op=op, apply=apply):
            lv = left(rows, outer_env)
            rv = right(rows, outer_env)
            out = []
            for l, r in zip(lv, rv):
                if l is None or r is None:
                    out.append(None)
                elif not is_numeric(l) or not is_numeric(r):
                    raise SqlTypeError(
                        f"operator {op} requires numeric operands, got "
                        f"{type(l).__name__} and {type(r).__name__}"
                    )
                else:
                    out.append(apply(l, r))
            return out

        return _arith

    raise PlanError(f"unknown binary operator {op!r}")


def _like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into a regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)
