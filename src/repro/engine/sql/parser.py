"""Recursive-descent SQL parser.

Grammar (simplified):

    statement    := select | create_table | create_index
    select       := SELECT [DISTINCT] items FROM from_list [WHERE expr]
                    [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                    [LIMIT n [OFFSET n]]
    from_list    := from_item ("," from_item)*
    from_item    := table_ref (join_clause)*
    join_clause  := [INNER] JOIN table_ref ON expr | CROSS JOIN table_ref
    expr         := or_expr with standard precedence:
                    OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE
                    < add/sub/|| < mul/div/mod < unary < primary

Expressions support scalar subqueries, EXISTS and IN (SELECT ...).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.errors import ParseError
from repro.engine.sql import ast
from repro.engine.sql.lexer import Token, TokenType, tokenize


def parse_statement(sql: str):
    """Parse one SQL statement; a trailing semicolon is allowed.

    Raises
    ------
    ParseError
        On any syntax error, with the source position.
    """
    statements = parse_statements(sql)
    if len(statements) != 1:
        raise ParseError(f"expected exactly one statement, got {len(statements)}")
    return statements[0]


def parse_statements(sql: str) -> list:
    """Parse a semicolon-separated script into statements."""
    parser = _Parser(tokenize(sql))
    return parser.parse_script()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check_keyword(self, *names: str) -> bool:
        return self._cur.is_keyword(*names)

    def _accept_keyword(self, *names: str) -> bool:
        if self._check_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._accept_keyword(name):
            raise ParseError(
                f"expected {name}, found {self._describe(self._cur)}",
                self._cur.position,
            )

    def _accept_punct(self, value: str) -> bool:
        if self._cur.type is TokenType.PUNCT and self._cur.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise ParseError(
                f"expected {value!r}, found {self._describe(self._cur)}",
                self._cur.position,
            )

    def _accept_operator(self, *values: str) -> Optional[str]:
        if self._cur.type is TokenType.OPERATOR and self._cur.value in values:
            return self._advance().value
        return None

    #: Keywords that may still be used as table/column/alias names.
    _SOFT_KEYWORDS = frozenset({"TABLE", "INDEX", "KEY", "PRIMARY"})

    def _expect_ident(self, what: str = "identifier") -> str:
        if self._cur.type is TokenType.IDENT:
            return self._advance().value
        if self._cur.type is TokenType.KEYWORD and self._cur.value in self._SOFT_KEYWORDS:
            return self._advance().value.lower()
        raise ParseError(
            f"expected {what}, found {self._describe(self._cur)}",
            self._cur.position,
        )

    @staticmethod
    def _describe(token: Token) -> str:
        if token.type is TokenType.EOF:
            return "end of input"
        return f"{token.value!r}"

    # -- script / statements --------------------------------------------

    def parse_script(self) -> list:
        statements = []
        while True:
            while self._accept_punct(";"):
                pass
            if self._cur.type is TokenType.EOF:
                return statements
            statements.append(self._statement())
            if self._cur.type is not TokenType.EOF:
                self._expect_punct(";")

    def _statement(self):
        if self._check_keyword("SELECT"):
            return self._select()
        if self._check_keyword("CREATE"):
            return self._create()
        raise ParseError(
            f"expected a statement, found {self._describe(self._cur)}",
            self._cur.position,
        )

    # -- SELECT ----------------------------------------------------------

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())

        from_items: tuple = ()
        if self._accept_keyword("FROM"):
            froms = [self._from_item()]
            while self._accept_punct(","):
                froms.append(self._from_item())
            from_items = tuple(froms)

        where = self._expr() if self._accept_keyword("WHERE") else None

        group_by: tuple = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            groups = [self._expr()]
            while self._accept_punct(","):
                groups.append(self._expr())
            group_by = tuple(groups)

        having = self._expr() if self._accept_keyword("HAVING") else None

        order_by: tuple = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._order_item()]
            while self._accept_punct(","):
                orders.append(self._order_item())
            order_by = tuple(orders)

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._int_literal("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._int_literal("OFFSET")

        return ast.Select(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _int_literal(self, clause: str) -> int:
        if self._cur.type is not TokenType.NUMBER:
            raise ParseError(
                f"{clause} expects an integer literal", self._cur.position
            )
        text = self._advance().value
        try:
            return int(text)
        except ValueError:
            raise ParseError(
                f"{clause} expects an integer, got {text!r}", self._cur.position
            ) from None

    def _select_item(self) -> ast.SelectItem:
        expr = self._expr_or_star()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif self._cur.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _expr_or_star(self) -> ast.Expr:
        if self._accept_operator("*"):
            return ast.Star()
        # alias.* form
        if (
            self._cur.type is TokenType.IDENT
            and self._pos + 2 < len(self._tokens)
            and self._tokens[self._pos + 1].value == "."
            and self._tokens[self._pos + 2].value == "*"
        ):
            qualifier = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return ast.Star(qualifier=qualifier)
        return self._expr()

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _from_item(self):
        item: object = self._table_ref()
        while True:
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                right = self._table_ref()
                item = ast.Join(left=item, right=right, condition=None, kind="CROSS")
                continue
            if self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                right = self._table_ref()
                self._expect_keyword("ON")
                condition = self._expr()
                item = ast.Join(
                    left=item, right=right, condition=condition, kind="LEFT"
                )
                continue
            inner = self._accept_keyword("INNER")
            if self._accept_keyword("JOIN"):
                right = self._table_ref()
                self._expect_keyword("ON")
                condition = self._expr()
                item = ast.Join(
                    left=item, right=right, condition=condition, kind="INNER"
                )
                continue
            if inner:
                raise ParseError("expected JOIN after INNER", self._cur.position)
            return item

    def _table_ref(self):
        if self._accept_punct("("):
            if not self._check_keyword("SELECT"):
                raise ParseError(
                    "expected SELECT in derived table", self._cur.position
                )
            select = self._select()
            self._expect_punct(")")
            self._accept_keyword("AS")
            alias = self._expect_ident("derived-table alias")
            return ast.DerivedTable(select=select, alias=alias)
        name = self._expect_ident("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif self._cur.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.TableRef(name=name, alias=alias)

    # -- CREATE ------------------------------------------------------------

    def _create(self):
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            name = self._expect_ident("table name")
            self._expect_punct("(")
            columns = [self._column_def()]
            while self._accept_punct(","):
                columns.append(self._column_def())
            self._expect_punct(")")
            return ast.CreateTable(name=name, columns=tuple(columns))
        if self._accept_keyword("INDEX"):
            name = self._expect_ident("index name")
            self._expect_keyword("ON")
            table = self._expect_ident("table name")
            self._expect_punct("(")
            column = self._expect_ident("column name")
            self._expect_punct(")")
            return ast.CreateIndex(name=name, table=table, column=column)
        raise ParseError(
            "expected TABLE or INDEX after CREATE", self._cur.position
        )

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_ident("column name")
        if self._cur.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError("expected a column type", self._cur.position)
        type_name = self._advance().value
        # Optional (n) / (p, s) length arguments -- parsed and ignored.
        if self._accept_punct("("):
            self._int_literal("type length")
            if self._accept_punct(","):
                self._int_literal("type scale")
            self._expect_punct(")")
        nullable = True
        if self._accept_keyword("NOT"):
            self._expect_keyword("NULL")
            nullable = False
        elif self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
            nullable = False
        else:
            self._accept_keyword("NULL")
        return ast.ColumnDef(name=name, type_name=type_name, nullable=nullable)

    # -- expressions ------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        if self._check_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            select = self._select()
            self._expect_punct(")")
            return ast.ExistsSubquery(select=select)

        left = self._additive()
        negated = False
        if self._check_keyword("NOT"):
            # x NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True

        op = self._accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            right = self._additive()
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, right)
        if self._accept_keyword("IS"):
            neg = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(operand=left, negated=neg)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self._check_keyword("SELECT"):
                select = self._select()
                self._expect_punct(")")
                return ast.InSubquery(operand=left, select=select, negated=negated)
            items = [self._expr()]
            while self._accept_punct(","):
                items.append(self._expr())
            self._expect_punct(")")
            return ast.InList(operand=left, items=tuple(items), negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)
        if self._accept_keyword("LIKE"):
            pattern = self._additive()
            return ast.Like(operand=left, pattern=pattern, negated=negated)
        if negated:
            raise ParseError(
                "expected IN, BETWEEN or LIKE after NOT", self._cur.position
            )
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._multiplicative())

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._unary())

    def _unary(self) -> ast.Expr:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._unary())
        if self._accept_operator("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._cur
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("CASE"):
            return self._case()
        if self._accept_punct("("):
            if self._check_keyword("SELECT"):
                select = self._select()
                self._expect_punct(")")
                return ast.ScalarSubquery(select=select)
            expr = self._expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            name = self._advance().value
            if self._accept_punct("("):
                return self._function_call(name)
            if self._accept_punct("."):
                column = self._expect_ident("column name")
                return ast.ColumnRef(name=column, qualifier=name)
            return ast.ColumnRef(name=name)
        raise ParseError(
            f"expected an expression, found {self._describe(token)}",
            token.position,
        )

    def _case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens = []
        while self._accept_keyword("WHEN"):
            cond = self._expr()
            self._expect_keyword("THEN")
            value = self._expr()
            whens.append((cond, value))
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self._cur.position)
        else_ = self._expr() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.Case(whens=tuple(whens), else_=else_)

    def _function_call(self, name: str) -> ast.Expr:
        if self._accept_operator("*"):
            self._expect_punct(")")
            return ast.FunctionCall(name=name.upper(), args=(), star=True)
        if self._accept_punct(")"):
            return ast.FunctionCall(name=name.upper(), args=())
        distinct = self._accept_keyword("DISTINCT")
        args = [self._expr()]
        while self._accept_punct(","):
            args.append(self._expr())
        self._expect_punct(")")
        return ast.FunctionCall(
            name=name.upper(), args=tuple(args), distinct=distinct
        )
