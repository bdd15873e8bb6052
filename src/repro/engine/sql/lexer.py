"""SQL scanner: one compiled pattern, no per-character loop.

Produces a flat token stream for the recursive-descent parser.  Token
kinds: KEYWORD (upper-cased), IDENT (lower-cased), NUMBER (int/float),
STRING, OP, EOF.  Comments (``-- ...``) and whitespace are skipped.
Digits are ASCII; identifiers keep their Unicode letters.

Literal ``VALUES`` rows
-----------------------

For the parser (:func:`scan`; never for :func:`tokenize`) the scanner
also knows where ``VALUES`` rows start — after the keyword, and after
every comma outside parentheses from there on — and at each such place
tries :func:`_literal_run`: a run of parenthesised rows holding nothing
but *bare literals* (``12``, ``-1.5e-3``, ``'it''s'``), of the same
types position by position.  A run costs three regex passes whatever
its length and becomes **one** ``ROWS`` token whose value is the rows
column-major as Python values — exactly the values the grammar would
have built, ``1`` an ``int``, ``1.0`` and ``1e3`` a ``float``, ``-0``
the integer 0.  A row of other types starts the next run; a row holding
anything else (an expression, ``DATE '...'``, ``TRUE``, ``- 5``, a
comment) is tokenized for the grammar, and the row after it tries
again.  The rule only ever reads text its patterns cover completely,
so it cannot change what a statement means.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from typing import NamedTuple

from ...errors import ParseError

__all__ = ["Token", "SqlLexError", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "BETWEEN", "IN", "ASC", "DESC",
    "CREATE", "TABLE", "DROP", "IF", "EXISTS",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "DATE", "INTERVAL", "DAY", "MONTH", "YEAR",
    "TRUE", "FALSE", "NULL", "DISTINCT",
    "JOIN", "INNER", "LEFT", "OUTER", "CROSS", "ON", "EXPLAIN",
    "MATERIALIZED", "VIEW", "REFRESH",
}


class SqlLexError(ParseError):
    """Lexical error with position information."""


class Token(NamedTuple):
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF | ROWS
    value: object
    pos: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}:{self.value!r}"


_EXPONENT = r"[eE][+-]?[0-9]+"
#: a dot or an exponent makes a float: 1.  .5  1.e2  2.5e-16  1e10
_FLOAT = rf"(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:{_EXPONENT})?|[0-9]+{_EXPONENT})"
_INT = r"[0-9]+"
_STRING = r"'[^']*(?:''[^']*)*'"

#: whitespace and comments, then exactly one token; alternatives in
#: priority order, so the pattern matches at every position of any text
_TOKEN = re.compile(
    rf"""(?:\s+|--[^\n]*)*
    (?: (?P<word>[^\W\d]\w*)
      | (?P<exponent>(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE](?![+-]?[0-9]))  # 1e 1.e+
      | (?P<float>{_FLOAT})
      | (?P<int>{_INT})
      | (?P<string>{_STRING})
      | (?P<op><=|>=|<>|!=|[-+*/(),=<>.;])
      | (?P<eof>\Z)
      | (?P<unexpected>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def scan(text: str, literal_rows: bool = True) -> list[Token]:
    """The parser's token stream: :func:`tokenize`, with every run of
    bare-literal ``VALUES`` rows folded into one ``ROWS`` token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    #: parenthesis depth once VALUES has been seen, -1 before
    depth = -1
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        raw = text[start:pos]
        if kind == "op":
            append(Token("OP", "<>" if raw == "!=" else raw, start))
            if depth >= 0:
                if raw == "(":
                    depth += 1
                elif raw == ")":
                    depth -= 1
                elif raw == "," and depth == 0:  # the next row starts
                    pos = _literal_run(text, pos, tokens)
        elif kind == "int":
            append(Token("NUMBER", int(raw), start))
        elif kind == "float":
            append(Token("NUMBER", float(raw), start))
        elif kind == "word":
            first = raw[0]  # ASCII: a letter or _ already; else any \w
            if first > "\x7f" and unicodedata.category(first)[0] != "L":
                _unexpected(first, start)
            upper = raw.upper()
            if upper not in KEYWORDS:
                append(Token("IDENT", raw.lower(), start))
                continue
            append(Token("KEYWORD", upper, start))
            if upper == "VALUES" and literal_rows:  # the first row starts
                depth = 0
                pos = _literal_run(text, pos, tokens)
        elif kind == "string":
            append(Token("STRING", _unquote(raw), start))
        elif kind == "eof":
            append(Token("EOF", None, start))
            return tokens
        elif kind == "exponent":
            raise SqlLexError(
                f"malformed exponent in number {raw!r} at position {start}"
            )
        elif raw == "'":
            raise SqlLexError(f"unterminated string at {start}")
        else:
            _unexpected(raw, start)


def tokenize(text: str) -> list[Token]:
    return scan(text, literal_rows=False)


def _unquote(literal: str) -> str:
    return literal[1:-1].replace("''", "'")


def _unexpected(ch: str, pos: int) -> None:
    if unicodedata.category(ch)[0] == "N":
        raise SqlLexError(f"non-ASCII digit {ch!r} at position {pos}")
    raise SqlLexError(f"unexpected character {ch!r} at position {pos}")


# -- literal VALUES rows -------------------------------------------------------

#: a bare literal, by the type of the value the grammar builds from it
_LITERALS = {float: rf"-?{_FLOAT}", int: rf"-?{_INT}", str: _STRING}
_READ = {
    float: lambda texts: list(map(float, texts)),
    int: lambda texts: list(map(int, texts)),
    str: lambda texts: list(map(_unquote, texts)),
}
_ANY_ROW = re.compile(
    r"\s*(\(\s*{0}\s*(?:,\s*{0}\s*)*\))".format(
        "(?:" + "|".join(_LITERALS.values()) + ")"
    )
)
#: reads the literals back out of text a row pattern matched: there a
#: number is a maximal run of its characters (what delimits it — space,
#: comma, parenthesis — is none of them), a string is as above
_TEXT = re.compile(rf"[-+.0-9eE]+|{_STRING}")


@lru_cache(maxsize=64)
def _run_of(types: tuple) -> re.Pattern:
    """Rows whose literals have exactly these types, comma-separated."""
    row = r"\(\s*" + r"\s*,\s*".join(map(_LITERALS.get, types)) + r"\s*\)"
    return re.compile(rf"\s*{row}(?:\s*,\s*{row})*")


def _literal_run(text: str, pos: int, tokens: list) -> int:
    """Fold the run of bare-literal rows at ``pos`` — every row holding
    the first one's types, position by position — into one ``ROWS``
    token: one list of Python values per position.  Returns where
    scanning goes on: ``pos`` itself when the first row is not a
    literal row."""
    first = _ANY_ROW.match(text, pos)
    if first is None:
        return pos
    types = tuple(
        # sign and digits stripped off, a float keeps its dot or exponent
        str if literal[0] == "'"
        else float if literal.strip("-0123456789") else int
        for literal in _TEXT.findall(text, first.start(1), first.end())
    )
    end = _run_of(types).match(text, pos).end()
    texts = _TEXT.findall(text, pos, end)
    columns = [
        _READ[kind](texts[at::len(types)]) for at, kind in enumerate(types)
    ]
    tokens.append(Token("ROWS", columns, first.start(1)))
    return end
