"""Tokenizer behavior: token classes, positions, comments, errors."""

import pytest

from repro.errors import ParseError
from repro.sql.lexer import Lexer, TokenType


def tokens_of(sql):
    return [t for t in Lexer(sql).tokenize() if t.type != TokenType.EOF]


def kinds_of(sql):
    return [t.type for t in tokens_of(sql)]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        for text in ("select", "SELECT", "SeLeCt"):
            (token,) = tokens_of(text)
            assert token.type == TokenType.KEYWORD
            assert token.value == "SELECT"

    def test_identifier_preserves_case(self):
        (token,) = tokens_of("CamelCase")
        assert token.type == TokenType.IDENTIFIER
        assert token.value == "CamelCase"

    def test_identifier_with_underscore_and_digits(self):
        (token,) = tokens_of("_tab_1x")
        assert token.value == "_tab_1x"

    def test_integer_literal(self):
        (token,) = tokens_of("12345")
        assert token.type == TokenType.INTEGER
        assert token.value == 12345

    def test_float_literal(self):
        (token,) = tokens_of("3.25")
        assert token.type == TokenType.FLOAT
        assert token.value == 3.25

    def test_float_scientific_notation(self):
        (token,) = tokens_of("1.5e3")
        assert token.type == TokenType.FLOAT
        assert token.value == 1500.0

    def test_float_negative_exponent(self):
        (token,) = tokens_of("2E-2")
        assert token.value == pytest.approx(0.02)

    def test_trailing_dot_float(self):
        (token,) = tokens_of("7.")
        assert token.type == TokenType.FLOAT
        assert token.value == 7.0

    def test_string_literal(self):
        (token,) = tokens_of("'hello'")
        assert token.type == TokenType.STRING
        assert token.value == "hello"

    def test_string_with_doubled_quote_escape(self):
        (token,) = tokens_of("'it''s'")
        assert token.value == "it's"

    def test_empty_string_literal(self):
        (token,) = tokens_of("''")
        assert token.value == ""

    def test_quoted_identifier(self):
        (token,) = tokens_of('"Select"')
        assert token.type == TokenType.IDENTIFIER
        assert token.value == "Select"

    def test_quoted_identifier_with_escape(self):
        (token,) = tokens_of('"a""b"')
        assert token.value == 'a"b'


class TestOperators:
    @pytest.mark.parametrize(
        "text,expected",
        [("<>", "<>"), ("!=", "<>"), ("<=", "<="), (">=", ">="), ("||", "||"),
         ("=", "="), ("<", "<"), (">", ">"), ("+", "+"), ("-", "-"),
         ("*", "*"), ("/", "/"), ("%", "%")],
    )
    def test_operator_tokens(self, text, expected):
        (token,) = tokens_of(text)
        assert token.type == TokenType.OPERATOR
        assert token.value == expected

    def test_adjacent_operators_split_greedily(self):
        values = [t.value for t in tokens_of("a<=b")]
        assert values == ["a", "<=", "b"]

    def test_punctuation(self):
        values = [t.value for t in tokens_of("(a, b.c)")]
        assert values == ["(", "a", ",", "b", ".", "c", ")"]


class TestCommentsAndWhitespace:
    def test_line_comment_is_skipped(self):
        values = [t.value for t in tokens_of("1 -- comment here\n2")]
        assert values == [1, 2]

    def test_block_comment_is_skipped(self):
        values = [t.value for t in tokens_of("1 /* multi\nline */ 2")]
        assert values == [1, 2]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            tokens_of("1 /* oops")

    def test_newlines_advance_line_numbers(self):
        tokens = tokens_of("a\nbb\n  c")
        assert [(t.line, t.column) for t in tokens] == [(1, 1), (2, 1), (3, 3)]


class TestErrors:
    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokens_of("'abc")

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(ParseError):
            tokens_of('"abc')

    def test_empty_quoted_identifier_raises(self):
        with pytest.raises(ParseError):
            tokens_of('""')

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(ParseError) as info:
            tokens_of("a @ b")
        assert info.value.column == 3

    def test_eof_token_is_appended(self):
        all_tokens = Lexer("x").tokenize()
        assert all_tokens[-1].type == TokenType.EOF


# -- the lexer's contract, case by case ----------------------------------------
#
# Each case is (text, expected) where expected is either the token list
# (type, value, line, column) without the EOF, or ("error", message, line,
# column) for the ParseError the text must raise.

I, F, S, ID, KW, OP, P = (
    TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING, TokenType.IDENTIFIER,
    TokenType.KEYWORD, TokenType.OPERATOR, TokenType.PUNCTUATION,
)

CONTRACT = [
    # strings: a doubled quote never closes the literal
    ("XX,E'T!=*LC½²''-", ("error", "unterminated string literal", 1, 5)),
    ("'it''s' x", [(S, "it's", 1, 1), (ID, "x", 1, 9)]),
    ("'a'''", [(S, "a'", 1, 1)]),
    ("'a''''", ("error", "unterminated string literal", 1, 1)),
    ("'a' 'b'", [(S, "a", 1, 1), (S, "b", 1, 5)]),
    ("'a\nb'", [(S, "a\nb", 1, 1)]),
    ("''''", [(S, "'", 1, 1)]),
    # block comments: unterminated ones fail at the end of the text
    ("SELECT 1 /* never closed", ("error", "unterminated block comment", 1, 25)),
    ("SELECT\n/* a\nb", ("error", "unterminated block comment", 3, 2)),
    ("/*/", ("error", "unterminated block comment", 1, 4)),
    ("a /**/ b", [(ID, "a", 1, 1), (ID, "b", 1, 8)]),
    ("a/* x */-- y\n/", [(ID, "a", 1, 1), (OP, "/", 2, 1)]),
    ("1--x", [(I, 1, 1, 1)]),
    # words start with a letter (str.isalpha) or '_'
    ("²", ("error", "unexpected character '²'", 1, 1)),
    ("x ½", ("error", "unexpected character '½'", 1, 3)),
    ("٣a", ("error", "unexpected character '٣'", 1, 1)),
    ("０", ("error", "unexpected character '０'", 1, 1)),
    ("1²", ("error", "unexpected character '²'", 1, 2)),
    ("a٣²½ é_", [(ID, "a٣²½", 1, 1), (ID, "é_", 1, 6)]),
    ("Ａb", [(ID, "Ａb", 1, 1)]),
    ("_1 sElEcT", [(ID, "_1", 1, 1), (KW, "SELECT", 1, 4)]),
    # numbers: ASCII digits only
    (".5", [(F, 0.5, 1, 1)]),
    ("7.", [(F, 7.0, 1, 1)]),
    ("1.5e3", [(F, 1500.0, 1, 1)]),
    ("2E-2", [(F, 0.02, 1, 1)]),
    ("1.e5", [(F, 100000.0, 1, 1)]),
    ("1e", [(I, 1, 1, 1), (ID, "e", 1, 2)]),
    ("1e+", [(I, 1, 1, 1), (ID, "e", 1, 2), (OP, "+", 1, 3)]),
    ("1e5.3", [(F, 100000.0, 1, 1), (F, 0.3, 1, 4)]),
    ("1.2.3", [(F, 1.2, 1, 1), (F, 0.3, 1, 4)]),
    ("1..2", [(F, 1.0, 1, 1), (F, 0.2, 1, 3)]),
    ("t.5", [(ID, "t", 1, 1), (F, 0.5, 1, 2)]),
    ("t.x", [(ID, "t", 1, 1), (P, ".", 1, 2), (ID, "x", 1, 3)]),
    ("007", [(I, 7, 1, 1)]),
    ("١٢", ("error", "unexpected character '١'", 1, 1)),
    # quoted identifiers
    ('""', ("error", "empty quoted identifier", 1, 1)),
    ('x ""y', ("error", "empty quoted identifier", 1, 3)),
    ('"""', ("error", "unterminated quoted identifier", 1, 1)),
    ('""""', [(ID, '"', 1, 1)]),
    ('"a""b" "FROM"', [(ID, 'a"b', 1, 1), (ID, "FROM", 1, 8)]),
    # operators and stray characters
    ("a!=b", [(ID, "a", 1, 1), (OP, "<>", 1, 2), (ID, "b", 1, 4)]),
    ("<>=", [(OP, "<>", 1, 1), (OP, "=", 1, 3)]),
    ("!", ("error", "unexpected character '!'", 1, 1)),
    ("a | b", ("error", "unexpected character '|'", 1, 3)),
    ("a\x0bb", ("error", "unexpected character '\\x0b'", 1, 2)),
    ("a\xa0b", ("error", "unexpected character '\\xa0'", 1, 2)),
    # positions across lines
    ("SELECT a,\n  b -- note\nFROM /* x\ny */ t",
     [(KW, "SELECT", 1, 1), (ID, "a", 1, 8), (P, ",", 1, 9), (ID, "b", 2, 3),
      (KW, "FROM", 3, 1), (ID, "t", 4, 6)]),
    ("SELECT a\nFROM t\nWHERE b = 'oops",
     ("error", "unterminated string literal", 3, 11)),
    ("SELECT\n  @", ("error", "unexpected character '@'", 2, 3)),
    ("-- c\n\t#", ("error", "unexpected character '#'", 2, 2)),
    ("a\r@", ("error", "unexpected character '@'", 1, 3)),
    ('x\n\n "', ("error", "unterminated quoted identifier", 3, 2)),
]


@pytest.mark.parametrize("text,expected", CONTRACT, ids=[repr(c[0]) for c in CONTRACT])
def test_lexer_contract(text, expected):
    if isinstance(expected, tuple):
        _, message, line, column = expected
        with pytest.raises(ParseError) as info:
            Lexer(text).tokenize()
        assert (str(info.value), info.value.line, info.value.column) == (
            f"{message} (at line {line}, column {column})", line, column
        )
        return
    got = [(t.type, t.value, t.line, t.column) for t in tokens_of(text)]
    assert got == expected
    assert all(type(t.value) is type(e[1]) for t, e in zip(tokens_of(text), expected))


@pytest.mark.parametrize(
    "text,position", [("", (1, 1)), ("a \n ", (2, 2)), ("x -- tail", (1, 10)), ("/**/\n", (2, 1))]
)
def test_eof_position(text, position):
    eof = Lexer(text).tokenize()[-1]
    assert (eof.type, eof.value, eof.line, eof.column) == (TokenType.EOF, None) + position
