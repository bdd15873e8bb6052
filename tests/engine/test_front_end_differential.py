"""The statement front end against what it replaced.

* The compiled scanner against the per-character loop it replaced
  (``tests/reference_lexer.py``): same token stream — kinds, values,
  value *types* (``1`` vs ``1.0``), positions — over every string in
  the repository's SQL-bearing sources and a hypothesis grammar of the
  places scanners go wrong.  The only accepted differences are the two
  bugs the loop had: a malformed exponent or a non-decimal digit
  escaping as a bare ``ValueError``, and a Unicode digit read as a
  number.
* ``INSERT ... VALUES`` with the literal-row rule against the same
  statement with the rule switched off (here, by monkeypatch — nothing
  in the library can): the same stored bytes and the same WAL bytes, or
  the same error type.
* ``SqlType.coerce_column`` — a whole column converted at once —
  against ``coerce`` value by value, for every type and every mixture
  of ints, floats, bools, strings and arrays a statement can hand it.
* What a literal INSERT costs, counted in profiled calls instead of
  read off a clock.
"""

from __future__ import annotations

import ast as python_ast
import cProfile
import pathlib
import pstats
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lexer import tokenize as reference_tokenize

import repro
from repro.engine import Database
from repro.engine.sql import SqlLexError, lexer, parse, tokenize
from repro.engine.table import Column
from repro.engine.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INT,
    DecimalSqlType,
    IntType,
    VarcharType,
)
from repro.errors import DataError

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# scanner vs the per-character loop
# ---------------------------------------------------------------------------


def _outcome(tokenizer, text):
    try:
        return [(t.kind, t.value, type(t.value), t.pos)
                for t in tokenizer(text)]
    except SqlLexError:
        return SqlLexError
    except ValueError:  # only the loop: float('1e'), int('²')
        return ValueError


def assert_same_stream(text):
    want, got = _outcome(reference_tokenize, text), _outcome(tokenize, text)
    if want is ValueError:
        # bug 1: the loop let float() / int() speak for it
        assert got is SqlLexError, text
    elif got is SqlLexError and want is not SqlLexError:
        # bug 2: the loop took a non-ASCII digit for (part of) a number
        with pytest.raises(SqlLexError) as info:
            tokenize(text)
        at = int(re.search(r"position (\d+)$", str(info.value)).group(1))
        kind, _, _, pos = [t for t in want if t[3] <= at][-1]
        number = re.match(r"[\d.eE+-]+", text[pos:]).group()
        assert kind == "NUMBER" and at < pos + len(number), text
        assert any(c.isdigit() and not c.isascii() for c in number), text
    else:
        assert got == want, text


def _string_constants(path):
    tree = python_ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.value for node in python_ast.walk(tree)
        if isinstance(node, python_ast.Constant)
        and isinstance(node.value, str)
    ]


def _sql_bearing_sources():
    return [
        *sorted((ROOT / "src" / "repro" / "tpch").glob("*.py")),
        ROOT / "scripts" / "repro_digest.py",
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "benchmarks" / "e2e").glob("*.py")),
    ]


def test_scanner_matches_the_loop_on_every_string_the_repository_runs():
    texts = [
        text for path in _sql_bearing_sources()
        for text in _string_constants(path)
    ]
    statements = [t for t in texts if re.match(
        r"\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|REFRESH|SET)\b", t
    )]
    assert len(statements) > 60  # the walk found the SQL, not nothing
    for text in texts:
        assert_same_stream(text)
    # the e2e write cycle's statement (benchmarks/e2e/workloads.py
    # builds it from a seeded rng at run time)
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], 200) * np.exp2(rng.uniform(-30, 30, 200))
    rows = ", ".join(
        f"({k}, {v!r})" for k, v in zip(range(200), values.tolist())
    )
    assert_same_stream(f"INSERT INTO obs VALUES {rows}")


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_ODD_DIGITS = st.text("0123456789٣²", min_size=1, max_size=4)
_EXPONENT = st.builds(
    "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=3),  # no digits: malformed
)
_MANTISSA = st.one_of(
    _DIGITS, _ODD_DIGITS,
    st.builds("{}.".format, _DIGITS),
    st.builds(".{}".format, _DIGITS),
    st.builds("{}.{}".format, _DIGITS, _ODD_DIGITS),
)
_NUMBER = st.one_of(
    _MANTISSA, st.builds("{}{}".format, _MANTISSA, _EXPONENT),
    st.sampled_from(["1.", ".5", "1.e2", "2.5e-16", "1e", "1e+", "1.e",
                     "9" * 30, "1..2", "1e5e3", "1e5.5"]),
)
_STRING_BODY = st.lists(
    st.sampled_from(["''", ",", "(", ")", "--", "\n", " ", "a", "é", "1"]),
    max_size=6,
).map("".join)
_STRING = st.one_of(
    st.builds("'{}'".format, _STRING_BODY),
    st.builds("'{}".format, _STRING_BODY),  # maybe unterminated
)
_COMMENT = st.builds(
    "--{}{}".format, st.text("a1' (,)-é", max_size=6),
    st.sampled_from(["\n", ""]),
)
_SPACE = st.text(" \t\n\r\x0b\x0c\x1c\x85\xa0 ", min_size=1, max_size=3)
_WORD = st.one_of(
    st.sampled_from(["select", "VALUES", "Insert", "e", "E3", "_x", "date"]),
    st.text("aZ_9éßΩ数²٣½Ⅷ", min_size=1, max_size=5),
)
_OP = st.sampled_from([
    "<=", ">=", "<>", "!=", "<", ">", "=", "+", "-", "*", "/", "(", ")",
    ",", ".", ";", "!", "@", "--", "- -",
])
_FRAGMENTS = st.lists(
    st.one_of(_NUMBER, _STRING, _COMMENT, _SPACE, _WORD, _OP), max_size=12
)


@settings(max_examples=600, deadline=None)
@given(_FRAGMENTS, st.sampled_from(["", " "]))
@example(["SELECT", " ", "1", "+", "٣"], "")
@example(["1", "٣"], "")
@example([".", "٣"], "")
@example(["x", "²"], "")
@example(["1e5", "e3"], "")
@example(["0e", "٣"], "")
@example(["a", ".", "5", ".", "b"], "")
def test_scanner_matches_the_loop_on_the_token_grammar(fragments, glue):
    assert_same_stream(glue.join(fragments))


@settings(max_examples=400, deadline=None)
@given(st.text(
    alphabet="01e.+-' \n\t(),;<>=!*/_aE٣²½é\xa0@", max_size=24,
))
def test_scanner_matches_the_loop_on_arbitrary_text(text):
    assert_same_stream(text)


# ---------------------------------------------------------------------------
# INSERT: literal rows vs the grammar alone
# ---------------------------------------------------------------------------

_COLUMNS = ["i", "b", "d", "s"]
_DDL = "CREATE TABLE t (i INT, b BIGINT, d DOUBLE, s VARCHAR(4))"

_SMALL_INT = st.one_of(
    st.integers(-(1 << 31), (1 << 31) - 1).map(str),
    st.sampled_from(["0", "-0", "- 5", "--5\n 7", "007", "- - 4"]),
)
_INT_TEXT = st.one_of(
    _SMALL_INT, _SMALL_INT,
    st.sampled_from([str(1 << 40), str(-(1 << 63)), "9007199254740993",
                     "9223372036854775807"]),
)
_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0.0", "1.", ".5", "-.5", "1.e2", "2.5e-16",
                     "1e400", "-1e400", "1.5", "- 1.5", "1E3",
                     "9007199254740993.0"]),
)
_STRING_TEXT = st.sampled_from(
    ["'a'", "''", "'it''s'", "'(,)'", "'--'", "'12'", "' 7 '", "'1.5'",
     "'é\n'"]
)
_EXPRESSION_TEXT = st.sampled_from(
    ["1+1", "(2)", "2 * 1.5", "TRUE", "FALSE", "-(3)", "1 -- one\n"]
)
#: what each column usually gets: values it takes, in every spelling
#: (ints into DOUBLE, floats into INT, digits in quotes)
_FITTING = {
    "i": st.one_of(_SMALL_INT, _SMALL_INT, _EXPRESSION_TEXT,
                   st.sampled_from(["1.5", "-2.9", "2147483647.9", "'12'"])),
    "b": st.one_of(_INT_TEXT, _INT_TEXT, _EXPRESSION_TEXT,
                   st.sampled_from(["1.5", "1e18", "' 7 '"])),
    "d": st.one_of(_FLOAT_TEXT, _FLOAT_TEXT, _INT_TEXT, _EXPRESSION_TEXT,
                   st.sampled_from(["123456789012345678901234567890",
                                    "'1.5'", "'inf'"])),
    "s": st.one_of(_STRING_TEXT, _STRING_TEXT, st.sampled_from(["12", "1.5"])),
}
#: and what it now and then gets instead
_ANYTHING = st.one_of(
    _INT_TEXT, _FLOAT_TEXT, _STRING_TEXT, _EXPRESSION_TEXT,
    st.sampled_from(["'toolong'", "123456", str(1 << 63), "1e400",
                     "123456789012345678901234567890",
                     "DATE '1998-09-02'", "'x'"]),
)


@st.composite
def _insert_statements(draw):
    """One INSERT over ``t``: mostly well-formed, mostly literal, with
    every way of not being either."""
    wild = draw(st.sampled_from([0, 0, 0, 1]))  # rows that may not fit
    names = draw(st.one_of(st.just(None), st.permutations(_COLUMNS)))
    if wild and names and draw(st.booleans()):
        names = names[:3]  # a column gets no value
    targets = list(names or _COLUMNS)
    space = st.sampled_from(["", " ", "  ", "\n", " \t"])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        values = [
            draw(space) + draw(_ANYTHING if wild and draw(st.booleans())
                               else _FITTING[name]) + draw(space)
            for name in targets
        ]
        if wild and draw(st.booleans()):  # wrong arity
            values = values[:-1] if draw(st.booleans()) else values + ["1"]
        rows.append(draw(space) + "(" + ",".join(values) + ")" + draw(space))
    head = "INSERT INTO t "
    if names is not None:
        head += "(" + ", ".join(names) + ") "
    return head + "VALUES" + ",".join(rows) + draw(
        st.sampled_from(["", ";", " ;", " -- done", "\n"])
    )


def _run(directory, statement):
    """The statement on a fresh durable table: what it stored and what
    it logged (or the type of what it raised)."""
    with repro.open(str(directory), wal_sync="never",
                    checkpoint_interval=None) as db:
        db.execute(_DDL)
        db.execute("INSERT INTO t VALUES (1, 2, 0.5, 'z')")
        try:
            outcome = db.execute(statement)
        except Exception as exc:  # noqa: BLE001 - the type is the result
            outcome = type(exc)
        state = db.table("t").physical_state()
        stored = {
            name: array.tolist() if array.dtype == object else array.tobytes()
            for name, array in state.pop("columns").items()
        }
        stored.update(
            (key, np.asarray(value).tobytes()) for key, value in state.items()
        )
        db.flush_wal()
        wal = b"".join(
            path.read_bytes() for path in sorted(directory.glob("wal-*.log"))
        )
    return outcome, stored, wal


@settings(max_examples=150, deadline=None)
@given(_insert_statements())
@example("INSERT INTO t VALUES (-0, -0, -0, 'a'), (-0.0, -0.0, -0.0, 'b')")
@example("INSERT INTO t VALUES (1.5, 2147483647.9, 1e400, ''), (1, 1, 1, 1)")
@example("INSERT INTO t VALUES (- 5, - 5, - 1.5, 'a'), (--5\n 7, - - 4, -.5, 'b')")
@example("INSERT INTO t VALUES (-5, -5, -1.5, 'a'), ( -7 , -4, -.5e1, '-1')")
@example("INSERT INTO t VALUES (1, 2, 3, 'a'), (1+1, 2, 3, 'b'), (3, 4, 5, 'c')")
@example("INSERT INTO t VALUES (1, 2, 3, 'a'), (1, 2, 3)")
@example("INSERT INTO t VALUES (1, 2, 'x', 'a')")
@example("INSERT INTO t (s, d, b) VALUES ('a', 1, 2)")
def test_literal_rows_store_what_the_grammar_alone_stores(
        tmp_path_factory, statement):
    as_written = _run(tmp_path_factory.mktemp("literal"), statement)
    with pytest.MonkeyPatch.context() as patch:
        # the literal-row rule off: every row goes through the grammar
        patch.setattr(lexer, "_literal_run", lambda text, pos, tokens: pos)
        assert all(t.kind != "ROWS" for t in lexer.scan(statement))
        grammar_alone = _run(tmp_path_factory.mktemp("grammar"), statement)
    assert as_written == grammar_alone, statement


def test_the_differential_compares_two_different_paths():
    statement = "INSERT INTO t VALUES (1, 2, 3.5, 'a'), (4, 5, 6.5, 'b')"
    assert [t.kind for t in lexer.scan(statement)].count("ROWS") == 1
    assert parse(statement).rows == tuple(
        tuple(parse(f"INSERT INTO t VALUES {row}").rows[0])
        for row in ("(1, 2, 3.5, 'a')", "(4, 5, 6.5, 'b')")
    )


# ---------------------------------------------------------------------------
# a column at once vs value by value
# ---------------------------------------------------------------------------

_TYPES = [
    IntType(8), IntType(16), INT, BIGINT, FLOAT, DOUBLE, BOOLEAN, DATE,
    DecimalSqlType(12, 2), DecimalSqlType(30, 2), VarcharType(4),
]
_EDGES = [
    0, -1, 127, 128, -129, 1 << 31, (1 << 31) - 1, -(1 << 63), (1 << 63) - 1,
    1 << 63, 1 << 70, 10 ** 400, 9007199254740993, True, False,
    0.0, -0.0, 1.5, -2.9, 127.9, 128.0, 2147483647.9, 9.3e18, -9.3e18,
    1e300, float("inf"), float("-inf"), float("nan"),
    "12", " 7 ", "1.5", "x", "", "toolong", "1998-09-02", None,
]
_ONE_VALUE = st.one_of(
    st.sampled_from(_EDGES), st.integers(-200, 200),
    st.floats(width=32, allow_nan=False),
)
_ONE_KIND = st.one_of(
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=6),
    st.lists(st.integers(-130, 130), min_size=1, max_size=6),
    st.lists(st.floats(), min_size=1, max_size=6),
    st.lists(st.floats(-130, 130), min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=6),
)
_NUMPY_DTYPES = st.sampled_from(
    [np.int64, np.int32, np.float64, np.float32, bool, object, "U8"]
)


def _per_value(sql_type, values):
    if isinstance(values, np.ndarray):
        values = values.tolist()
    try:
        stored = [sql_type.coerce(v) for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e300 into FLOAT, like the column
            return np.array(stored, dtype=sql_type.numpy_dtype)
    except (ValueError, TypeError, OverflowError, RuntimeWarning):
        return None


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_TYPES),
       st.one_of(_ONE_KIND, _ONE_KIND, st.lists(_ONE_VALUE, max_size=6)),
       st.one_of(st.none(), _NUMPY_DTYPES))
@example(BIGINT, [9007199254740993, 1.5], None)
@example(INT, [127.9, float("nan")], None)
@example(IntType(8), [127.9, -128.9], np.float64)
@example(IntType(8), [128.0], np.float32)
@example(DOUBLE, [1 << 70, 1], None)
@example(DOUBLE, ["1.5", 2], None)
@example(DecimalSqlType(12, 2), [1, 2], np.int64)
def test_a_column_at_once_stores_what_value_by_value_stores(
        sql_type, values, dtype):
    if dtype is not None:
        try:
            values = np.array(values, dtype=dtype)
        except (ValueError, TypeError, OverflowError, RuntimeWarning):
            return  # not an array a statement could have built
    want = _per_value(sql_type, values)
    column = Column("c", sql_type)
    if want is None:
        with pytest.raises((DataError, RuntimeWarning)):
            column.coerce(values)
        return
    got = column.coerce(values)
    assert got.dtype == want.dtype == sql_type.numpy_dtype
    if got.dtype == object:
        assert got.tolist() == want.tolist()
        assert [type(v) for v in got] == [type(v) for v in want]
    else:
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# work per statement, counted
# ---------------------------------------------------------------------------


def _profiled_calls(db, statement):
    profile = cProfile.Profile()
    profile.enable()
    db.execute(statement)
    profile.disable()
    return pstats.Stats(profile).total_calls


def _literal_insert(nrows):
    rows = ", ".join(f"({i % 97}, {(i * 0.37 - 50) ** 3!r})"
                     for i in range(nrows))
    return f"INSERT INTO obs VALUES {rows}"


def test_a_literal_insert_costs_calls_per_statement_not_per_value():
    """35 900 profiled calls for the 200-row statement at the commit
    before the compiled scanner (a ``Token``, eight grammar levels and
    an ``ast.Literal`` per value, a dict per row)."""
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE obs (k INT, v DOUBLE)")
    db.execute(_literal_insert(3))  # imports, pattern cache
    small = _profiled_calls(db, _literal_insert(200))
    assert small <= 1500
    # linear, and no regex recursion limit on the way: 250x the rows
    # for no more calls per row
    large = _profiled_calls(db, _literal_insert(50_000))
    assert large / 50_000 <= small / 200
    assert len(db.table("obs")) == 50_203


def test_update_and_insert_select_cost_calls_per_column_not_per_row():
    """196 000 calls each over 9 800 rows at the commit before the
    columnar append (a dict per row, a ``to_python`` per value)."""
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE obs (k INT, v DOUBLE)")
    db.execute("CREATE TABLE copy (k INT, v DOUBLE)")
    db.execute(_literal_insert(9_800))
    before = db.execute("SELECT SUM(v), COUNT(*) FROM obs").rows()
    assert _profiled_calls(db, "UPDATE obs SET k = k + 1") <= 1500
    assert _profiled_calls(db, "INSERT INTO copy SELECT k, v FROM obs") <= 1500
    assert db.execute("SELECT SUM(v), COUNT(*) FROM obs").rows() == before
    assert db.execute("SELECT SUM(v), COUNT(*) FROM copy").rows() == before
