"""SQL tokenizer.

Produces a flat list of :class:`Token`.  Keywords are case-insensitive;
identifiers keep their original spelling (matching is case-insensitive
downstream).  String literals use single quotes with ``''`` escaping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.engine.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AS", "AND", "OR", "NOT", "NULL", "IS", "IN", "BETWEEN",
    "LIKE", "EXISTS", "CASE", "WHEN", "THEN", "ELSE", "END", "ASC", "DESC",
    "CREATE", "TABLE", "INDEX", "ON", "JOIN", "INNER", "LEFT", "OUTER",
    "CROSS", "DISTINCT", "TRUE", "FALSE", "PRIMARY", "KEY",
}


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names


_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%", "||")
_PUNCT = "(),.;"


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*; always ends with an EOF token.

    Raises
    ------
    ParseError
        On unterminated strings or unexpected characters.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < n and (sql[j + 1].isdigit() or sql[j + 1] in "+-"):
                        seen_exp = True
                        j += 2 if sql[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
