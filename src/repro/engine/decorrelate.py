"""Plan-time subquery decorrelation: correlated scalar aggregates become joins.

A correlated subquery is the one expression node the vectorized engine
cannot batch: ``bind_expr`` runs its subplan once per input row, so the
paper's own workload query (a correlated scalar aggregate over
``lineitem``) pays a whole index probe per outer row.  This pass rewrites
that form into a plain join at the AST level -- before planning -- so the
result rides the ordinary vectorized scan/hash-join/aggregate path:

* **Scalar aggregate subquery** (``expr OP (SELECT agg(..) FROM i WHERE
  i.k = o.k AND ..)``): the inner query becomes a derived table grouped
  by its correlation keys, LEFT-joined to the outer query on those keys;
  the subquery expression is replaced by the derived table's aggregate
  columns (``COUNT`` slots wrapped in ``COALESCE(.., 0)`` so an absent
  group counts 0, matching the aggregate-over-empty-input row).

``EXISTS`` and ``IN (SELECT ..)`` are not rewritten: no workload runs
them, and they keep the per-row subplan path.

Safety first: the rewrite only fires when it can *prove* equivalence from
the catalog -- all FROM leaves are known base tables, every inner
predicate is either purely inner or an ``inner_col = outer_col`` equality
whose sides share a comparison type family (hash equality must agree with
``compare_values``), and the subquery body has no nesting, grouping,
ordering or limits.  Anything unprovable
falls back to the original per-row subplan path unchanged.  The
differential tests check both plan shapes against each other and against
stdlib ``sqlite3``.

Known (accepted) deviation: the decorrelated form computes the inner
aggregates for *all* key groups, while the naive path only evaluates
groups that are actually probed -- so a data-dependent error inside a
never-probed group can surface under decorrelation that the per-row
subplans would miss.  This matches how production optimizers behave and is
documented in docs/ALGORITHMS.md.

The pass runs unless a database is built with ``Database(decorrelate=False)``.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.catalog import Catalog
from repro.engine.errors import EngineError
from repro.engine.sql import ast
from repro.engine.types import SqlType

#: Synthesized derived-table aliases and column names start with ``#`` --
#: the lexer cannot produce that character, so they can never collide
#: with (or capture) user references.  Mirrors the planner's ``#agg``.
DERIVED_ALIAS_PREFIX = "#dc"

#: Comparison type families: hash-join key equality and ``compare_values``
#: agree within a family and are rejected across families.
_TYPE_FAMILY = {
    SqlType.INTEGER: "num",
    SqlType.FLOAT: "num",
    SqlType.TEXT: "str",
    SqlType.BOOLEAN: "bool",
}


# ---------------------------------------------------------------------------
# Catalog-derived name scopes
# ---------------------------------------------------------------------------


class _Scope:
    """Column bindings of one SELECT's FROM clause, from the catalog."""

    def __init__(self) -> None:
        #: (binding, column names) in FROM order -- star-expansion order.
        self.order: list[tuple[str, list[str]]] = []
        self._columns: dict[str, dict[str, str]] = {}

    def add(self, binding: str, columns: list[str], families: list[str]) -> bool:
        key = binding.lower()
        if key in self._columns:
            return False  # duplicate binding: the planner's error to raise
        self.order.append((binding, list(columns)))
        self._columns[key] = {
            c.lower(): f for c, f in zip(columns, families)
        }
        return True

    def lookup(self, ref: ast.ColumnRef) -> tuple[str, Optional[str]]:
        """Resolve *ref* here: ``("yes", family) | ("no"|"ambiguous", None)``."""
        name = ref.name.lower()
        if ref.qualifier is not None:
            cols = self._columns.get(ref.qualifier.lower())
            if cols is not None and name in cols:
                return "yes", cols[name]
            return "no", None
        hits = [cols[name] for cols in self._columns.values() if name in cols]
        if len(hits) == 1:
            return "yes", hits[0]
        return ("no", None) if not hits else ("ambiguous", None)

    def resolves(self, ref: ast.ColumnRef) -> str:
        return self.lookup(ref)[0]


def _scope_of(
    from_items, catalog: Catalog
) -> Optional[tuple[_Scope, list[ast.Expr]]]:
    """Build the scope of a FROM clause; None when any leaf is unprovable.

    Also returns the explicit join ON conditions found along the way.
    """
    scope = _Scope()
    conditions: list[ast.Expr] = []

    def walk(item) -> bool:
        if isinstance(item, ast.TableRef):
            try:
                table = catalog.table(item.name)
            except EngineError:
                return False
            columns = list(table.schema.column_names)
            families = [
                _TYPE_FAMILY[col.sql_type] for col in table.schema.columns
            ]
            return scope.add(item.binding, columns, families)
        if isinstance(item, ast.Join):
            if not walk(item.left) or not walk(item.right):
                return False
            if item.condition is not None:
                conditions.append(item.condition)
            return True
        return False  # derived tables etc.: skip the rewrite

    for item in from_items:
        if not walk(item):
            return None
    return scope, conditions


# ---------------------------------------------------------------------------
# The rewriter
# ---------------------------------------------------------------------------


class _SelectRewriter:
    """Rewrites the subquery expressions of one SELECT.

    Collects the LEFT joins to graft onto the FROM clause; identical
    subquery nodes (e.g. repeated in ORDER BY) share one join.
    """

    def __init__(
        self, select: ast.Select, catalog: Catalog, outer_scope: _Scope
    ) -> None:
        self.select = select
        self.catalog = catalog
        self.outer_scope = outer_scope
        self.joins: list[tuple[ast.DerivedTable, ast.Expr]] = []
        self.fired: list[str] = []
        self._cache: dict[ast.Expr, Optional[ast.Expr]] = {}
        self._counter = 0

    # -- entry ----------------------------------------------------------

    def transform(self, expr: ast.Expr) -> ast.Expr:
        return ast.transform_expr(expr, self._visit)

    def _visit(self, node: ast.Expr) -> Optional[ast.Expr]:
        if not isinstance(node, ast.ScalarSubquery):
            return None
        if node not in self._cache:
            self._cache[node] = self._rewrite_scalar(node)
        return self._cache[node]

    # -- analysis -------------------------------------------------------

    def _analyze_inner(self, sub: ast.Select):
        """Split the inner WHERE into pure-inner conjuncts and key pairs.

        Returns ``(inner scope, inner conjuncts, [(inner_ref, outer_ref)])``
        or None when any conjunct is neither provably inner-only nor an
        ``inner_col = outer_col`` equality on a shared type family.
        """
        info = _scope_of(sub.from_items, self.catalog)
        if info is None:
            return None
        scope, join_conds = info
        for cond in join_conds:
            if ast.contains_subquery(cond) or not _all_inner(cond, scope):
                return None
        inner_conjuncts: list[ast.Expr] = []
        keys: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
        for conj in ast.split_conjuncts(sub.where):
            verdict = self._classify(conj, scope)
            if verdict is None:
                return None
            kind, payload = verdict
            if kind == "inner":
                inner_conjuncts.append(conj)
            else:
                keys.append(payload)
        return scope, inner_conjuncts, keys

    def _classify(self, conj: ast.Expr, inner: _Scope):
        """One inner conjunct -> ``("inner", None)`` / ``("key", pair)`` / None."""
        if ast.contains_subquery(conj):
            return None
        has_outer = False
        for ref in ast.collect_column_refs(conj):
            kind = inner.resolves(ref)
            if kind == "ambiguous":
                return None
            if kind == "yes":
                continue
            if self.outer_scope.resolves(ref) == "yes":
                has_outer = True
            else:
                return None  # unknown, ambiguous, or a deeper scope
        if not has_outer:
            return ("inner", None)
        if (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)
        ):
            # Inner resolution takes scoping precedence, exactly as the
            # binder walks scopes innermost-first.
            left_in, left_fam = inner.lookup(conj.left)
            right_in, right_fam = inner.lookup(conj.right)
            if left_in == "yes" and right_in != "yes":
                pair, in_fam = (conj.left, conj.right), left_fam
                _, out_fam = self.outer_scope.lookup(conj.right)
            elif right_in == "yes" and left_in != "yes":
                pair, in_fam = (conj.right, conj.left), right_fam
                _, out_fam = self.outer_scope.lookup(conj.left)
            else:
                return None
            if in_fam != out_fam:
                return None  # hash equality would not match compare_values
            return ("key", pair)
        return None

    def _next_alias(self) -> str:
        alias = f"{DERIVED_ALIAS_PREFIX}{self._counter}"
        self._counter += 1
        return alias

    def _key_parts(
        self, alias: str, keys: list[tuple[ast.ColumnRef, ast.ColumnRef]]
    ) -> tuple[list[ast.SelectItem], list[ast.Expr], list[ast.Expr]]:
        """Key select items, join equalities, and the GROUP BY exprs."""
        items, equalities, group_by = [], [], []
        for i, (inner_ref, outer_ref) in enumerate(keys):
            items.append(ast.SelectItem(expr=inner_ref, alias=f"#k{i}"))
            equalities.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(name=f"#k{i}", qualifier=alias),
                    outer_ref,
                )
            )
            group_by.append(inner_ref)
        return items, equalities, group_by

    # -- the rule -------------------------------------------------------

    def _rewrite_scalar(self, node: ast.ScalarSubquery) -> Optional[ast.Expr]:
        sub = node.select
        if (
            sub.group_by
            or sub.having is not None
            or sub.order_by
            or sub.distinct
            or sub.limit is not None
            or sub.offset is not None
            or len(sub.items) != 1
        ):
            return None
        expr0 = sub.items[0].expr
        if isinstance(expr0, ast.Star) or ast.contains_subquery(expr0):
            return None
        if not ast.contains_aggregate(expr0):
            return None
        analysis = self._analyze_inner(sub)
        if analysis is None:
            return None
        inner_scope, inner_conjuncts, keys = analysis
        if not keys:
            return None  # uncorrelated: the init-plan path already runs once

        aggregates = ast.collect_aggregates(expr0)
        for call in aggregates:
            if call.star:
                continue
            if len(call.args) != 1:
                return None
            arg = call.args[0]
            if ast.contains_aggregate(arg) or not _all_inner(arg, inner_scope):
                return None
        # Outside the aggregates the select expression must be closed
        # (no free column references).
        agg_set = set(aggregates)
        stripped = ast.transform_expr(
            expr0, lambda e: ast.Literal(None) if e in agg_set else None
        )
        if ast.collect_column_refs(stripped):
            return None

        alias = self._next_alias()
        key_items, equalities, group_by = self._key_parts(alias, keys)
        agg_items: list[ast.SelectItem] = []
        replacements: dict[ast.Expr, ast.Expr] = {}
        for j, call in enumerate(aggregates):
            name = f"#a{j}"
            agg_items.append(ast.SelectItem(expr=call, alias=name))
            ref: ast.Expr = ast.ColumnRef(name=name, qualifier=alias)
            if call.name.upper() == "COUNT":
                # An absent group must count 0, like COUNT over no input.
                ref = ast.FunctionCall(name="COALESCE", args=(ref, ast.Literal(0)))
            replacements[call] = ref

        derived = ast.DerivedTable(
            select=ast.Select(
                items=tuple(key_items + agg_items),
                from_items=sub.from_items,
                where=ast.conjoin(inner_conjuncts),
                group_by=tuple(group_by),
            ),
            alias=alias,
        )
        self.joins.append((derived, ast.conjoin(equalities)))
        self.fired.append("scalar-agg")
        return ast.transform_expr(expr0, lambda e: replacements.get(e))

def _all_inner(expr: ast.Expr, scope: _Scope) -> bool:
    return all(
        scope.resolves(ref) == "yes" for ref in ast.collect_column_refs(expr)
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _select_has_subquery(select: ast.Select) -> bool:
    exprs: list[ast.Expr] = [
        it.expr for it in select.items if not isinstance(it.expr, ast.Star)
    ]
    if select.where is not None:
        exprs.append(select.where)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(select.group_by)
    exprs.extend(o.expr for o in select.order_by)
    return any(ast.contains_subquery(e) for e in exprs)


def _outer_is_aggregated(select: ast.Select) -> bool:
    if select.group_by or select.having is not None:
        return True
    return any(
        not isinstance(it.expr, ast.Star) and ast.contains_aggregate(it.expr)
        for it in select.items
    )


def _expand_star_items(
    items: tuple[ast.SelectItem, ...], scope: _Scope
) -> Optional[tuple[ast.SelectItem, ...]]:
    """Expand ``*`` against the *original* FROM bindings.

    Must happen before the rewrite joins are grafted on, or ``SELECT *``
    would pick up the synthesized derived-table columns.  Mirrors the
    planner's expansion (FROM order, schema column order, qualified refs).
    """
    if not any(isinstance(it.expr, ast.Star) for it in items):
        return items
    out: list[ast.SelectItem] = []
    for item in items:
        if not isinstance(item.expr, ast.Star):
            out.append(item)
            continue
        qualifier = item.expr.qualifier
        matched = False
        for binding, columns in scope.order:
            if qualifier is None or binding.lower() == qualifier.lower():
                out.extend(
                    ast.SelectItem(
                        expr=ast.ColumnRef(name=c, qualifier=binding)
                    )
                    for c in columns
                )
                matched = True
        if not matched:
            return None  # unknown qualifier: keep the original's error
    return tuple(out)


def decorrelate_select(
    select: ast.Select, catalog: Catalog
) -> tuple[ast.Select, tuple[str, ...]]:
    """Rewrite one SELECT; returns ``(select, fired rule tags)``.

    The input is returned unchanged (and no tags fire) whenever any part
    of the rewrite cannot be proven safe.
    """
    if not select.from_items:
        return select, ()
    if not _select_has_subquery(select):
        return select, ()
    info = _scope_of(select.from_items, catalog)
    if info is None:
        return select, ()
    outer_scope, _ = info

    rewriter = _SelectRewriter(select, catalog, outer_scope)
    where = (
        rewriter.transform(select.where) if select.where is not None else None
    )
    items = select.items
    order_by = select.order_by
    if not _outer_is_aggregated(select):
        # Rewriting select-list/ORDER BY subqueries is only safe when the
        # outer query does not aggregate (the joins must not feed new
        # columns into grouping).  WHERE is always safe: the grouped
        # derived tables join at most one row per outer row.
        items = tuple(
            ast.SelectItem(
                expr=(
                    it.expr
                    if isinstance(it.expr, ast.Star)
                    else rewriter.transform(it.expr)
                ),
                alias=it.alias,
            )
            for it in items
        )
        order_by = tuple(
            ast.OrderItem(
                expr=rewriter.transform(o.expr), descending=o.descending
            )
            for o in order_by
        )
    if not rewriter.joins:
        return select, ()

    expanded = _expand_star_items(items, outer_scope)
    if expanded is None:
        return select, ()
    from_items = list(select.from_items)
    tail = from_items[-1]
    for derived, condition in rewriter.joins:
        tail = ast.Join(left=tail, right=derived, condition=condition, kind="LEFT")
    from_items[-1] = tail
    rewritten = ast.Select(
        items=expanded,
        from_items=tuple(from_items),
        where=where,
        group_by=select.group_by,
        having=select.having,
        order_by=order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
    return rewritten, tuple(rewriter.fired)


def decorrelate_statement(
    statement, catalog: Catalog
) -> tuple[object, tuple[str, ...]]:
    """Decorrelate a parsed SELECT; other statements pass through."""
    if isinstance(statement, ast.Select):
        return decorrelate_select(statement, catalog)
    return statement, ()
