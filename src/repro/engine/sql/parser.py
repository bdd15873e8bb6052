"""Recursive-descent parser for the SQL subset.

Grammar (simplified)::

    statement   := select | explain | create | insert | update | delete
                 | drop | refresh | set
    explain     := EXPLAIN select
    create      := CREATE TABLE name '(' coldefs ')'
                 | CREATE MATERIALIZED VIEW name AS select
    insert      := INSERT INTO name ['(' cols ')'] (VALUES rows | select)
    rows        := (ROWS | '(' expr (',' expr)* ')') (',' rows)?
    refresh     := REFRESH MATERIALIZED VIEW name
    select      := SELECT [DISTINCT] item (',' item)* [FROM from_clause]
                   [WHERE expr] [GROUP BY expr (',' expr)*]
                   [HAVING expr] [ORDER BY order (',' order)*]
                   [LIMIT number]
    from_clause := table_ref ((',' | join_op) table_ref [ON expr])*
    join_op     := [INNER] JOIN | LEFT [OUTER] JOIN | CROSS JOIN
    table_ref   := ident [[AS] ident]
    expr        := or ; standard precedence
    or          := and (OR and)*
    and         := not (AND not)*
    not         := [NOT] comparison
    comparison  := additive (cmp-op additive | BETWEEN additive AND additive)?
    additive    := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/') unary)*
    unary       := ['-'] primary
    primary     := literal | DATE string | INTERVAL string unit
                 | func '(' args ')' | column | '(' expr ')' | '*'

``ROWS`` is the one token that is not a lexeme: a run of ``VALUES`` rows
holding only bare literals, which the scanner (:mod:`.lexer`) hands over
as columns of Python values — no token, no descent through ``expr`` and
no ``ast.Literal`` per value.  Every other row is parsed as written.

Covers everything the paper's queries need (Algorithm 1, TPC-H
Q1/Q3/Q5/Q6, HAVING-misclassification examples) without pretending to
be a full SQL front end.
"""

from __future__ import annotations

from ...errors import ParseError
from . import ast
from .lexer import Token, scan

__all__ = ["SqlParseError", "parse", "parse_expression"]


class SqlParseError(ParseError):
    """Syntax error with token context."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = scan(text)
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words

    def accept_kw(self, *words: str) -> bool:
        if self.check_kw(*words):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise SqlParseError(f"expected {word}, found {self.peek()!r}")

    def check_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def accept_op(self, *ops: str) -> str | None:
        if self.check_op(*ops):
            return self.advance().value
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SqlParseError(f"expected {op!r}, found {self.peek()!r}")

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.advance().value
        # Non-reserved keywords usable as identifiers (e.g. DATE column)
        raise SqlParseError(f"expected identifier, found {tok!r}")

    # -- statements --------------------------------------------------------
    def parse_statement(self):
        if self.check_kw("EXPLAIN"):
            self.advance()
            stmt = ast.Explain(self.parse_select())
        elif self.check_kw("SELECT"):
            stmt = self.parse_select()
        elif self.check_kw("CREATE"):
            stmt = self.parse_create()
        elif self.check_kw("INSERT"):
            stmt = self.parse_insert()
        elif self.check_kw("UPDATE"):
            stmt = self.parse_update()
        elif self.check_kw("DELETE"):
            stmt = self.parse_delete()
        elif self.check_kw("DROP"):
            stmt = self.parse_drop()
        elif self.check_kw("REFRESH"):
            stmt = self.parse_refresh()
        elif self.check_kw("SET"):
            stmt = self.parse_set()
        else:
            raise SqlParseError(f"unexpected start of statement: {self.peek()!r}")
        self.accept_op(";")
        if self.peek().kind != "EOF":
            raise SqlParseError(f"trailing input: {self.peek()!r}")
        return stmt

    def parse_select(self) -> ast.Select:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        from_clause = None
        if self.accept_kw("FROM"):
            from_clause = self.parse_from_clause()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        group_by: list[ast.Expr] = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_kw("HAVING") else None
        order_by: list[ast.OrderItem] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_kw("LIMIT"):
            tok = self.advance()
            if tok.kind != "NUMBER" or not isinstance(tok.value, int):
                raise SqlParseError("LIMIT expects an integer")
            limit = tok.value
        return ast.Select(
            tuple(items), from_clause, where, tuple(group_by), having,
            tuple(order_by), limit, distinct,
        )

    def parse_from_clause(self) -> "ast.TableRef | ast.Join":
        """FROM item: comma list (implicit inner joins) and JOIN ... ON
        clauses, folded into a left-deep :class:`ast.Join` tree."""
        left: ast.TableRef | ast.Join = self.parse_table_ref()
        while True:
            if self.accept_op(","):
                # Comma join: an inner join whose predicate lives in
                # WHERE (the optimizer recovers the equi-keys).
                left = ast.Join(left, self.parse_table_ref(), "inner", None)
                continue
            kind = None
            if self.accept_kw("JOIN"):
                kind = "inner"
            elif self.accept_kw("INNER"):
                self.expect_kw("JOIN")
                kind = "inner"
            elif self.accept_kw("LEFT"):
                self.accept_kw("OUTER")
                self.expect_kw("JOIN")
                kind = "left"
            elif self.accept_kw("CROSS"):
                self.expect_kw("JOIN")
                kind = "cross"
            if kind is None:
                return left
            right = self.parse_table_ref()
            condition = None
            if kind != "cross":
                self.expect_kw("ON")
                condition = self.parse_expr()
            left = ast.Join(left, right, kind, condition)

    def parse_table_ref(self) -> ast.TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return ast.OrderItem(expr, descending)

    def parse_create(self):
        self.expect_kw("CREATE")
        if self.accept_kw("MATERIALIZED"):
            self.expect_kw("VIEW")
            name = self.expect_ident()
            self.expect_kw("AS")
            return ast.CreateMaterializedView(name, self.parse_select())
        self.expect_kw("TABLE")
        name = self.expect_ident()
        self.expect_op("(")
        columns = [self.parse_column_def()]
        while self.accept_op(","):
            columns.append(self.parse_column_def())
        self.expect_op(")")
        return ast.CreateTable(name, tuple(columns))

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        tok = self.advance()
        if tok.kind == "IDENT":
            type_name = tok.value
        elif tok.kind == "KEYWORD" and tok.value == "DATE":
            type_name = "DATE"
        else:
            raise SqlParseError(f"expected type name, found {tok!r}")
        args: list[int] = []
        if self.accept_op("("):
            while True:
                num = self.advance()
                if num.kind != "NUMBER" or not isinstance(num.value, int):
                    raise SqlParseError("type arguments must be integers")
                args.append(num.value)
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        # DOUBLE PRECISION
        if type_name.lower() == "double" and self.peek().kind == "IDENT" \
                and self.peek().value == "precision":
            self.advance()
        return ast.ColumnDef(name, type_name, tuple(args))

    def parse_insert(self) -> ast.Insert:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        if self.check_kw("SELECT"):
            return ast.Insert(table, tuple(columns), (), self.parse_select())
        self.expect_kw("VALUES")
        values = [self.parse_values()]
        while self.accept_op(","):
            values.append(self.parse_values())
        return ast.Insert(table, tuple(columns), tuple(values))

    def parse_values(self) -> "ast.LiteralRows | tuple":
        """A run of literal rows the scanner already folded into
        columns, or one row of expressions."""
        if self.peek().kind == "ROWS":
            return ast.LiteralRows(tuple(self.advance().value))
        return self.parse_value_tuple()

    def parse_value_tuple(self) -> tuple:
        self.expect_op("(")
        values = [self.parse_expr()]
        while self.accept_op(","):
            values.append(self.parse_expr())
        self.expect_op(")")
        return tuple(values)

    def parse_update(self) -> ast.Update:
        self.expect_kw("UPDATE")
        table = self.expect_ident()
        self.expect_kw("SET")
        assignments = [self.parse_assignment()]
        while self.accept_op(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def parse_assignment(self) -> tuple:
        name = self.expect_ident()
        self.expect_op("=")
        return (name, self.parse_expr())

    def parse_delete(self) -> ast.Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return ast.Delete(table, where)

    def parse_set(self) -> ast.SetParam:
        """``SET name = value`` — value is a literal, TRUE/FALSE/NULL,
        or a bare identifier (e.g. ``SET memory_budget = unbounded``)."""
        self.expect_kw("SET")
        name = self.expect_ident()
        self.expect_op("=")
        tok = self.peek()
        if tok.kind == "NUMBER":
            return ast.SetParam(name, self.advance().value)
        if tok.kind == "STRING":
            return ast.SetParam(name, self.advance().value)
        if tok.kind == "IDENT":
            return ast.SetParam(name, self.advance().value)
        if self.accept_kw("TRUE"):
            return ast.SetParam(name, True)
        if self.accept_kw("FALSE"):
            return ast.SetParam(name, False)
        if self.accept_kw("NULL"):
            return ast.SetParam(name, None)
        if tok.kind == "KEYWORD":
            # Bare words that happen to be keywords (``LEFT``) read as
            # their lower-cased string value, so a knob's validator —
            # or a retired name's notice — answers, not the parser.
            return ast.SetParam(name, str(self.advance().value).lower())
        raise SqlParseError(f"expected a SET value, found {tok!r}")

    def parse_drop(self):
        self.expect_kw("DROP")
        if self.accept_kw("MATERIALIZED"):
            self.expect_kw("VIEW")
            if_exists = False
            if self.accept_kw("IF"):
                self.expect_kw("EXISTS")
                if_exists = True
            return ast.DropMaterializedView(self.expect_ident(), if_exists)
        self.expect_kw("TABLE")
        if_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("EXISTS")
            if_exists = True
        return ast.DropTable(self.expect_ident(), if_exists)

    def parse_refresh(self) -> ast.RefreshMaterializedView:
        self.expect_kw("REFRESH")
        self.expect_kw("MATERIALIZED")
        self.expect_kw("VIEW")
        return ast.RefreshMaterializedView(self.expect_ident())

    # -- expressions --------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = ast.Binary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = ast.Binary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_kw("NOT"):
            return ast.Unary("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        if self.accept_kw("BETWEEN"):
            low = self.parse_additive()
            self.expect_kw("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high)
        op = self.accept_op("=", "<>", "<", "<=", ">", ">=")
        if op:
            return ast.Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = ast.Binary(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_op("*", "/")
            if not op:
                return left
            left = ast.Binary(op, left, self.parse_unary())

    def parse_unary(self) -> ast.Expr:
        if self.accept_op("-"):
            operand = self.parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.Unary("-", operand)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return ast.Literal(tok.value)
        if tok.kind == "STRING":
            self.advance()
            return ast.Literal(tok.value)
        if self.check_kw("TRUE"):
            self.advance()
            return ast.Literal(True)
        if self.check_kw("FALSE"):
            self.advance()
            return ast.Literal(False)
        if self.check_kw("DATE"):
            self.advance()
            text = self.advance()
            if text.kind != "STRING":
                raise SqlParseError("DATE expects a string literal")
            return ast.DateLiteral(text.value)
        if self.check_kw("INTERVAL"):
            self.advance()
            amount = self.advance()
            if amount.kind == "STRING":
                value = int(amount.value)
            elif amount.kind == "NUMBER" and isinstance(amount.value, int):
                value = amount.value
            else:
                raise SqlParseError("INTERVAL expects an integer amount")
            unit_tok = self.advance()
            if unit_tok.kind != "KEYWORD" or unit_tok.value not in (
                "DAY", "MONTH", "YEAR",
            ):
                raise SqlParseError("INTERVAL unit must be DAY, MONTH or YEAR")
            return ast.IntervalLiteral(value, unit_tok.value)
        if self.check_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if self.check_op("*"):
            self.advance()
            return ast.Star()
        if tok.kind == "IDENT":
            name = self.advance().value
            if self.check_op("("):  # function call
                self.advance()
                args: list[ast.Expr] = []
                distinct = self.accept_kw("DISTINCT")
                if not self.check_op(")"):
                    args.append(self.parse_expr())
                    while self.accept_op(","):
                        args.append(self.parse_expr())
                self.expect_op(")")
                return ast.FuncCall(name.upper(), tuple(args), distinct)
            if self.check_op("."):
                self.advance()
                column = self.expect_ident()
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)
        raise SqlParseError(f"unexpected token {tok!r}")


def parse(text: str):
    """Parse one SQL statement into its AST."""
    return _Parser(text).parse_statement()


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (testing helper)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.peek().kind != "EOF":
        raise SqlParseError(f"trailing input: {parser.peek()!r}")
    return expr
