"""Tests for the SQL lexer and parser."""

import pytest

from repro.engine.sql import SqlLexError, SqlParseError, ast, parse, parse_expression, tokenize


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM Bar")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert kinds == [
            ("KEYWORD", "SELECT"),
            ("IDENT", "foo"),
            ("KEYWORD", "FROM"),
            ("IDENT", "bar"),
        ]

    def test_numbers(self):
        tokens = tokenize("42 3.14 2.5e-16 1e10 .5")
        values = [t.value for t in tokens[:-1]]
        assert values == [42, 3.14, 2.5e-16, 1e10, 0.5]
        assert isinstance(values[0], int)

    def test_strings_with_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlLexError):
            tokenize("'oops")

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- comment\n, 2")
        assert len(tokens) == 5  # SELECT 1 , 2 EOF

    def test_two_char_operators(self):
        tokens = tokenize("a <= b <> c != d >= e")
        ops = [t.value for t in tokens if t.kind == "OP"]
        assert ops == ["<=", "<>", "<>", ">="]

    def test_unexpected_character(self):
        with pytest.raises(SqlLexError):
            tokenize("SELECT @foo")


class TestExpressionParsing:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.Unary) and expr.op == "NOT"

    def test_between(self):
        expr = parse_expression("x BETWEEN 0.05 AND 0.07")
        assert isinstance(expr, ast.Between)

    def test_unary_minus_folds_literals(self):
        expr = parse_expression("-5")
        assert expr == ast.Literal(-5)

    def test_date_literal(self):
        expr = parse_expression("DATE '1998-12-01'")
        assert expr == ast.DateLiteral("1998-12-01")

    def test_interval(self):
        expr = parse_expression("DATE '1998-12-01' - INTERVAL '90' DAY")
        assert isinstance(expr.right, ast.IntervalLiteral)
        assert expr.right.amount == 90

    def test_function_call(self):
        expr = parse_expression("SUM(x * (1 - y))")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "SUM" and expr.is_aggregate

    def test_rsum_with_level(self):
        expr = parse_expression("RSUM(f, 3)")
        assert expr.name == "RSUM" and len(expr.args) == 2

    def test_qualified_column(self):
        expr = parse_expression("lineitem.l_quantity")
        assert expr == ast.ColumnRef("l_quantity", table="lineitem")

    def test_sql_roundtrip_text(self):
        text = "((a + b) * 2)"
        assert parse_expression(text).sql() == "((a + b) * 2)"

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse_expression("1 + 2 extra oops")


class TestStatementParsing:
    def test_select_full_clauses(self):
        stmt = parse(
            "SELECT k, SUM(v) AS s FROM t WHERE v > 0 GROUP BY k "
            "HAVING SUM(v) > 1 ORDER BY s DESC LIMIT 5"
        )
        assert isinstance(stmt, ast.Select)
        assert stmt.table == "t"
        assert stmt.items[1].alias == "s"
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert stmt.limit == 5

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_implicit_alias(self):
        stmt = parse("SELECT v total FROM t")
        assert stmt.items[0].alias == "total"

    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE r (i INT, f DOUBLE, d DECIMAL(12, 2), "
            "s VARCHAR(10), dt DATE)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["i", "f", "d", "s", "dt"]
        assert stmt.columns[2].type_args == (12, 2)
        assert stmt.columns[4].type_name == "DATE"

    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO r VALUES (1, 2.5e-16), (2, 0.999)")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse("INSERT INTO r (f, i) VALUES (0.5, 1)")
        assert stmt.columns == ("f", "i")

    def test_update(self):
        stmt = parse("UPDATE r SET i = i + 1 WHERE i = 2")
        assert isinstance(stmt, ast.Update)
        assert stmt.assignments[0][0] == "i"

    def test_delete(self):
        stmt = parse("DELETE FROM r WHERE f < 0")
        assert isinstance(stmt, ast.Delete)

    def test_drop(self):
        stmt = parse("DROP TABLE IF EXISTS r")
        assert stmt.if_exists

    def test_semicolon_allowed(self):
        parse("SELECT 1;")

    def test_garbage_statement(self):
        with pytest.raises(SqlParseError):
            parse("VACUUM SELECT 1")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT 1 SELECT 2")

    def test_algorithm1_statements_parse(self):
        for sql in [
            "CREATE TABLE R (i int, f float)",
            "INSERT INTO R VALUES (1, 2.5e-16)",
            "SELECT SUM(f) FROM R",
            "UPDATE R SET i = i + 1 WHERE i = 2",
        ]:
            parse(sql)


class TestLexErrorsAreTyped:
    """Reproduced at the commit before the compiled scanner: these
    escaped ``float()`` / ``int()`` as a bare ``ValueError`` (wire code
    ``error``), and ``SELECT 1 + ٣`` *returned 4* because
    ``str.isdigit`` accepts every Unicode digit."""

    @pytest.mark.parametrize("sql,position", [
        ("INSERT INTO t VALUES (1, 1e, 'a')", 25),
        ("INSERT INTO t VALUES (1, 1e+, 'a')", 25),
        ("INSERT INTO t VALUES (1, 1.e, 'a')", 25),
        ("SELECT .5E- 3", 7),
    ])
    def test_malformed_exponent(self, sql, position):
        for entry in (tokenize, parse):
            with pytest.raises(SqlLexError, match=f"exponent.* {position}$"):
                entry(sql)

    @pytest.mark.parametrize("sql,position", [
        ("SELECT ²", 7),
        ("SELECT 1 + ٣", 11),
        ("SELECT 1٣", 8),
        ("INSERT INTO t VALUES (٣)", 22),
        ("INSERT INTO t VALUES (1), (1, 2²)", 31),
    ])
    def test_non_ascii_digit(self, sql, position):
        for entry in (tokenize, parse):
            with pytest.raises(SqlLexError,
                               match=f"non-ASCII digit .* {position}$"):
                entry(sql)

    def test_a_non_ascii_digit_is_not_a_number_in_a_query(self):
        from repro.engine import Database
        from repro.errors import ParseError

        db = Database()
        assert db.execute("SELECT 1 + 3").scalar() == 4
        with pytest.raises(ParseError) as info:
            db.execute("SELECT 1 + ٣")
        assert info.value.code == "parse_error"
        db.execute("CREATE TABLE t (k INT, v DOUBLE, s VARCHAR(4))")
        for sql in ("INSERT INTO t VALUES (1, 1e, 'a')",
                    "INSERT INTO t VALUES (1, 1e+, 'a')",
                    "SELECT ²"):
            with pytest.raises(SqlLexError) as info:
                db.execute(sql)
            assert info.value.code == "parse_error"
        assert db.table("t").physical_rows == 0

    def test_identifiers_keep_their_unicode_letters(self):
        tokens = tokenize("SELECT größe, naïve_2, 数量, x² FROM tablé")
        assert [t.value for t in tokens if t.kind == "IDENT"] == [
            "größe", "naïve_2", "数量", "x²", "tablé",
        ]

    def test_token_is_a_cheap_value_with_equality(self):
        from repro.engine.sql import Token

        token = Token("NUMBER", 1, 7)
        assert (token.kind, token.value, token.pos) == ("NUMBER", 1, 7)
        assert token == Token("NUMBER", 1, 7)
        assert token != Token("NUMBER", 2, 7)
        assert tokenize("1")[0] == Token("NUMBER", 1, 0)


class TestLiteralRows:
    """``VALUES`` rows of bare literals reach the statement as columns;
    anything else goes through the grammar, in the same statement."""

    def test_literal_rows_arrive_column_major(self):
        stmt = parse("INSERT INTO r VALUES (1, 2.5e-16, 'a'), (-2, .5, 'it''s')")
        assert stmt.values == (
            ast.LiteralRows(([1, -2], [2.5e-16, 0.5], ["a", "it's"])),
        )
        assert [type(v) for v in stmt.values[0].columns[0]] == [int, int]
        assert stmt.rows == (
            (ast.Literal(1), ast.Literal(2.5e-16), ast.Literal("a")),
            (ast.Literal(-2), ast.Literal(0.5), ast.Literal("it's")),
        )

    def test_a_run_is_rows_of_the_same_types(self):
        sql = "INSERT INTO r VALUES (1, 0.5), (2, 1), (3, 1.5), (4, .5), ('5', 6.)"
        stmt = parse(sql)
        assert stmt.values == (
            ast.LiteralRows(([1], [0.5])),
            ast.LiteralRows(([2], [1])),
            ast.LiteralRows(([3, 4], [1.5, 0.5])),
            ast.LiteralRows((["5"], [6.0])),
        )
        assert [type(row[1].value) for row in stmt.rows] == [
            float, int, float, float, float,
        ]

    def test_expression_rows_share_the_statement(self):
        stmt = parse(
            "INSERT INTO r VALUES (1, 2), (1 + 1, 2), (3, 4), (5, 6), "
            "(DATE '1998-01-01', 7), (- 8, 9), (10, 11) -- the end\n;"
        )
        kinds = [type(entry).__name__ for entry in stmt.values]
        assert kinds == ["LiteralRows", "tuple", "LiteralRows", "tuple",
                         "tuple", "LiteralRows"]
        assert len(stmt.rows) == 7
        assert stmt.rows[5] == (ast.Literal(-8), ast.Literal(9))

    @pytest.mark.parametrize("row", [
        "(1+1, 2)", "(DATE '1998-01-01', 2)", "(TRUE, 2)", "(- 5, 2)",
        "(1, -- five\n 2)", "((1), 2)", "(+1, 2)", "(a, 2)",
    ])
    def test_a_row_the_pattern_does_not_cover_is_not_guessed_at(self, row):
        from repro.engine.sql import lexer

        tokens = lexer.scan(f"INSERT INTO r VALUES (1, 2), {row}, (3, 4)")
        # INSERT INTO r VALUES ROWS , <the row, as plain tokens> , ROWS EOF
        plain = [(t.kind, t.value) for t in tokenize(row)[:-1]]
        assert [(t.kind, t.value) for t in tokens[4:]] == [
            ("ROWS", [[1], [2]]), ("OP", ","), *plain, ("OP", ","),
            ("ROWS", [[3], [4]]), ("EOF", None),
        ]

    def test_literal_values_are_what_the_grammar_builds(self):
        stmt = parse(
            "INSERT INTO r VALUES (-0, -0.0, 1e400, 1., 1.e2, "
            "123456789012345678901234567890, '', '(,)--')"
        )
        (run,) = stmt.values
        values = [column[0] for column in run.columns]
        assert values == [0, -0.0, float("inf"), 1.0, 100.0,
                          123456789012345678901234567890, "", "(,)--"]
        assert [type(v) for v in values] == [
            int, float, float, float, float, int, str, str,
        ]
        import math

        assert math.copysign(1.0, values[1]) == -1.0

    def test_tokenize_never_folds_rows(self):
        tokens = tokenize("INSERT INTO r VALUES (1, 2)")
        assert [t.kind for t in tokens] == [
            "KEYWORD", "KEYWORD", "IDENT", "KEYWORD",
            "OP", "NUMBER", "OP", "NUMBER", "OP", "EOF",
        ]
