"""Tokenizer for the mediator's SQL dialect: one compiled regular expression.

Each step matches one alternative of :data:`_TOKEN` at the current offset
(leading whitespace included) and dispatches on the alternative's name.
Tokens record their start offset; line and column are derived from the text
only when read, so that parse errors can point at the offending text.
Keywords are case-insensitive; identifiers keep their case but compare
case-insensitively downstream (double-quoted identifiers preserve case
exactly and may contain keywords).
"""

from __future__ import annotations

import enum
import re
from typing import Any, List, NamedTuple, NoReturn, Tuple

from ..errors import ParseError


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    EOF = "EOF"


#: Reserved words recognized by the parser. Anything else is an identifier.
KEYWORDS = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
        "ORDER", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS",
        "NULL", "TRUE", "FALSE", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN",
        "ELSE", "END", "CAST", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
        "CROSS", "ON", "UNION", "INTERSECT", "EXCEPT", "ALL", "ASC", "DESC",
        "EXISTS", "DATE", "OVER", "PARTITION",
    }
)

# Alternatives are tried in order, so a comment wins over the ``-`` and ``/``
# operators, a number over the ``.`` punctuation, and a multi-character
# operator over its prefix. Each ``open_*`` alternative only matches where
# the complete form before it failed. Digits are ASCII (``\d`` would admit
# superscripts and other scripts that ``int()`` rejects), and a quote
# followed by a quote continues the literal, hence the ``(?!')`` after the
# closing quote.
_TOKEN = re.compile(
    r"""
    [ \t\r\n]*
    (?:
        (?P<comment>--[^\n]*|/\*.*?\*/)
      | (?P<open_comment>/\*)
      | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)
      | (?P<integer>[0-9]+)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<open_string>')
      | (?P<quoted>"[^"]*(?:""[^"]*)*"(?!"))
      | (?P<open_quoted>")
      | (?P<word>\w+)
      | (?P<operator><>|!=|<=|>=|\|\||[=<>+\-*/%])
      | (?P<punctuation>[(),.])
      | (?P<eof>\Z)
      | (?P<unexpected>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _position(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Token(NamedTuple):
    """A single lexical token: its start ``offset`` into ``text``, with the
    1-based ``line`` and ``column`` computed on read."""

    type: TokenType
    value: Any
    offset: int
    text: str

    @property
    def line(self) -> int:
        return _position(self.text, self.offset)[0]

    @property
    def column(self) -> int:
        return _position(self.text, self.offset)[1]

    def matches_keyword(self, *keywords: str) -> bool:
        """True if this token is one of the given keywords."""
        return self.type == TokenType.KEYWORD and self.value in keywords

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_quoted": "unterminated quoted identifier",
}


class Lexer:
    """Converts SQL text into a list of :class:`Token`.

    Usage::

        tokens = Lexer("SELECT 1").tokenize()
    """

    def __init__(self, text: str) -> None:
        self._text = text

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input, appending a trailing EOF token."""
        text = self._text
        tokens: List[Token] = []
        pos = 0
        while True:
            match = _TOKEN.match(text, pos)
            kind = match.lastgroup
            start = match.start(kind)
            value = match.group(kind)
            pos = match.end()
            if kind == "word":
                upper = value.upper()
                if upper in KEYWORDS:
                    tokens.append(Token(TokenType.KEYWORD, upper, start, text))
                elif value[0].isalpha() or value[0] == "_":
                    tokens.append(Token(TokenType.IDENTIFIER, value, start, text))
                else:
                    self._fail(f"unexpected character {value[0]!r}", start)
            elif kind == "punctuation":
                tokens.append(Token(TokenType.PUNCTUATION, value, start, text))
            elif kind == "operator":
                # Normalize != to the SQL-standard spelling.
                value = "<>" if value == "!=" else value
                tokens.append(Token(TokenType.OPERATOR, value, start, text))
            elif kind == "integer":
                tokens.append(Token(TokenType.INTEGER, int(value), start, text))
            elif kind == "float":
                tokens.append(Token(TokenType.FLOAT, float(value), start, text))
            elif kind == "string":
                tokens.append(Token(TokenType.STRING, value[1:-1].replace("''", "'"), start, text))
            elif kind == "quoted":
                if value == '""':
                    self._fail("empty quoted identifier", start)
                tokens.append(
                    Token(TokenType.IDENTIFIER, value[1:-1].replace('""', '"'), start, text)
                )
            elif kind == "eof":
                tokens.append(Token(TokenType.EOF, None, start, text))
                return tokens
            elif kind == "unexpected":
                self._fail(f"unexpected character {value!r}", start)
            elif kind != "comment":
                # An unterminated comment runs to the end of the text;
                # literals report where they opened.
                self._fail(_ERRORS[kind], len(text) if kind == "open_comment" else start)

    def _fail(self, message: str, offset: int) -> NoReturn:
        raise ParseError(message, *_position(self._text, offset))
