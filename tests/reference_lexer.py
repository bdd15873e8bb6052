"""The differential oracle for the SQL scanner: the per-character loop.

``repro.engine.sql.lexer.tokenize`` was this loop until it became one
compiled pattern; the loop moved here verbatim (only the imports and
this docstring changed) so ``tests/engine/test_lexer_differential.py``
can hold the scanner's token stream — kinds, values, value *types*,
positions — against it.  Two behaviours of the loop are bugs the
scanner does not reproduce, and the differential test names them as
the only accepted differences:

* a malformed exponent (``1e``, ``1e+``, ``1.e``) escapes as a bare
  ``ValueError`` out of ``float()`` instead of a ``SqlLexError``;
* ``str.isdigit`` accepts every Unicode digit, so ``²`` reaches
  ``int()`` (another bare ``ValueError``) and ``٣`` *is the number 3*.

Nothing under ``src/repro`` may import this module
(``tests/scripts/test_ci_gates.py``).
"""

from __future__ import annotations

from repro.engine.sql.lexer import KEYWORDS, SqlLexError, Token

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPS = "+-*/(),=<>.;"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlLexError(f"unterminated string at {i}")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token("STRING", "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                cj = text[j]
                if cj.isdigit():
                    j += 1
                elif cj == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif cj in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                else:
                    break
            raw = text[i:j]
            value = float(raw) if (seen_dot or seen_exp) else int(raw)
            tokens.append(Token("NUMBER", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word.lower(), i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("OP", "<>" if two == "!=" else two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        raise SqlLexError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("EOF", None, n))
    return tokens
