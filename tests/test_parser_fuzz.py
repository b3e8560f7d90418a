"""Parser robustness: arbitrary input must parse or raise ParseError — never
crash with anything else, and never hang."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.sql.ast import Select, SetOperation
from repro.sql.lexer import Lexer
from repro.sql.parser import parse_select

sql_ish_tokens = st.sampled_from(
    [
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN",
        "ON", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "CASE", "WHEN",
        "THEN", "ELSE", "END", "UNION", "ALL", "EXISTS", "OVER", "PARTITION",
        "t", "u", "a", "b", "x1", "COUNT", "SUM", "UPPER",
        "1", "2.5", "'s'", "NULL", "TRUE", "*", "(", ")", ",", ".", "=",
        "<", ">", "<=", ">=", "<>", "+", "-", "/", "%", "||", ";", "AS",
    ]
)

#: Characters that reach the lexer's edge cases; ``st.text()`` rarely does.
LEXER_ALPHABET = "abcXYZ_019 .,()'\"-*/<>=!|%\n\t+eE²½é٣Ａ"


class TestLexerTotal:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.text(max_size=80))
    def test_lexer_never_crashes(self, text):
        try:
            tokens = Lexer(text).tokenize()
        except ParseError:
            return
        assert tokens[-1].type.name == "EOF"

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=40))
    def test_lexer_handles_decoded_binary(self, blob):
        text = blob.decode("utf-8", errors="replace")
        try:
            Lexer(text).tokenize()
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=40))
    def test_lexer_edge_alphabet(self, text):
        """Quotes, comment openers, exponents and non-ASCII digits/letters:
        tokens come in text order ending in EOF, or the error is positioned."""
        try:
            tokens = Lexer(text).tokenize()
        except ParseError as error:
            assert 1 <= error.line <= text.count("\n") + 1
            assert error.column >= 1
            return
        assert tokens[-1].type.name == "EOF"
        positions = [(t.line, t.column) for t in tokens]
        assert positions == sorted(positions)
        assert len(set(positions[:-1])) == len(positions) - 1


class TestParserTotal:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(sql_ish_tokens, max_size=25).map(" ".join))
    def test_token_soup_parses_or_parse_errors(self, text):
        try:
            statement = parse_select(text)
        except ParseError:
            return
        assert isinstance(statement, (Select, SetOperation))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.text(max_size=120))
    def test_arbitrary_text_parses_or_parse_errors(self, text):
        try:
            statement = parse_select(text)
        except ParseError:
            return
        assert isinstance(statement, (Select, SetOperation))

    def test_deeply_nested_parentheses(self):
        depth = 60
        text = "SELECT " + "(" * depth + "1" + ")" * depth
        statement = parse_select(text)
        assert isinstance(statement, Select)

    def test_pathological_but_valid(self):
        text = (
            "SELECT CASE WHEN a = 1 AND NOT b < 2 THEN -x ELSE y || 'z' END "
            "FROM t JOIN u ON t.a = u.b WHERE c BETWEEN 1 AND 2 OR d IN (1,2)"
        )
        parse_select(text)
