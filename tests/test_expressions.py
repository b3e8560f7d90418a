"""Expression compiler: SQL three-valued logic, kernels, and typing."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.expressions import (
    build_layout,
    cast_value,
    evaluate_constant,
    infer_type,
    like_pattern_to_regex,
)
from repro.core.logical import RelColumn
from repro.datatypes import DataType
from repro.errors import ExecutionError, TypeCheckError
from repro.sql import ast

from .reference import compile_expression, compile_predicate


def lit(value):
    if value is None:
        return ast.Literal(None, DataType.NULL)
    if isinstance(value, bool):
        return ast.Literal(value, DataType.BOOLEAN)
    if isinstance(value, int):
        return ast.Literal(value, DataType.INTEGER)
    if isinstance(value, float):
        return ast.Literal(value, DataType.FLOAT)
    if isinstance(value, str):
        return ast.Literal(value, DataType.TEXT)
    if isinstance(value, datetime.date):
        return ast.Literal(value, DataType.DATE)
    raise AssertionError(value)


def ev(expr):
    return evaluate_constant(expr)


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        cases = {
            (True, True): True,
            (True, False): False,
            (False, None): False,
            (None, False): False,
            (True, None): None,
            (None, None): None,
        }
        for (a, b), expected in cases.items():
            assert ev(ast.BinaryOp("AND", lit(a), lit(b))) is expected

    def test_or_truth_table(self):
        cases = {
            (False, False): False,
            (True, None): True,
            (None, True): True,
            (False, None): None,
            (None, None): None,
        }
        for (a, b), expected in cases.items():
            assert ev(ast.BinaryOp("OR", lit(a), lit(b))) is expected

    def test_not(self):
        assert ev(ast.UnaryOp("NOT", lit(True))) is False
        assert ev(ast.UnaryOp("NOT", lit(None))) is None

    def test_comparison_with_null_is_null(self):
        assert ev(ast.BinaryOp("=", lit(None), lit(1))) is None
        assert ev(ast.BinaryOp("<", lit(1), lit(None))) is None

    def test_arithmetic_null_propagation(self):
        assert ev(ast.BinaryOp("+", lit(None), lit(2))) is None

    def test_division_by_zero_is_null(self):
        assert ev(ast.BinaryOp("/", lit(10), lit(0))) is None
        assert ev(ast.BinaryOp("%", lit(10), lit(0))) is None

    def test_predicate_collapses_null_to_false(self):
        predicate = compile_predicate(ast.BinaryOp("=", lit(None), lit(1)), {})
        assert predicate(()) is False


class TestComparisons:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("=", 2, 2, True),
            ("<>", 2, 3, True),
            ("<", 1, 2, True),
            ("<=", 2, 2, True),
            (">", 3.5, 2, True),
            (">=", 1, 2, False),
        ],
    )
    def test_numeric(self, op, a, b, expected):
        assert ev(ast.BinaryOp(op, lit(a), lit(b))) is expected

    def test_dates_compare(self):
        early = datetime.date(1988, 1, 1)
        late = datetime.date(1989, 1, 1)
        assert ev(ast.BinaryOp("<", lit(early), lit(late))) is True

    def test_text_comparison(self):
        assert ev(ast.BinaryOp("<", lit("apple"), lit("banana"))) is True


class TestInList:
    def test_in_hit(self):
        assert ev(ast.InList(lit(2), (lit(1), lit(2)), False)) is True

    def test_in_miss(self):
        assert ev(ast.InList(lit(5), (lit(1), lit(2)), False)) is False

    def test_in_miss_with_null_is_null(self):
        assert ev(ast.InList(lit(5), (lit(1), lit(None)), False)) is None

    def test_not_in_hit_is_false(self):
        assert ev(ast.InList(lit(2), (lit(1), lit(2)), True)) is False

    def test_not_in_miss_with_null_is_null(self):
        assert ev(ast.InList(lit(5), (lit(None),), True)) is None

    def test_null_operand_is_null(self):
        assert ev(ast.InList(lit(None), (lit(1),), False)) is None

    def test_dynamic_items(self):
        column = RelColumn("x", DataType.INTEGER)
        expr = ast.InList(lit(3), (column.ref(), lit(9)), False)
        fn = compile_expression(expr, build_layout([column]))
        assert fn((3,)) is True
        assert fn((4,)) is False


class TestBetween:
    def test_inclusive(self):
        assert ev(ast.Between(lit(5), lit(1), lit(5), False)) is True

    def test_negated(self):
        assert ev(ast.Between(lit(0), lit(1), lit(5), True)) is True

    def test_null_bound(self):
        assert ev(ast.Between(lit(3), lit(None), lit(5), False)) is None


class TestLike:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("hello", "h%", True),
            ("hello", "%o", True),
            ("hello", "h_llo", True),
            ("hello", "H%", False),  # case-sensitive
            ("hello", "hello", True),
            ("hel.lo", "hel.lo", True),
            ("a\nb", "a%b", True),  # DOTALL
            ("x", "%", True),
            ("", "%", True),
            ("abc", "_", False),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert ev(ast.BinaryOp("LIKE", lit(value), lit(pattern))) is expected

    def test_null_operand(self):
        assert ev(ast.BinaryOp("LIKE", lit(None), lit("%"))) is None

    def test_regex_metachars_escaped(self):
        regex = like_pattern_to_regex("a+b")
        assert regex.match("a+b") and not regex.match("aab")


class TestCaseExpressions:
    def test_searched_case_first_match(self):
        expr = ast.Case(
            None,
            ((ast.BinaryOp(">", lit(5), lit(1)), lit("big")),
             (lit(True), lit("other"))),
            lit("else"),
        )
        assert ev(expr) == "big"

    def test_searched_case_null_condition_skipped(self):
        expr = ast.Case(None, ((lit(None), lit("x")),), lit("fallback"))
        assert ev(expr) == "fallback"

    def test_simple_case(self):
        expr = ast.Case(lit(2), ((lit(1), lit("one")), (lit(2), lit("two"))), None)
        assert ev(expr) == "two"

    def test_simple_case_no_match_no_else(self):
        expr = ast.Case(lit(9), ((lit(1), lit("one")),), None)
        assert ev(expr) is None


class TestCast:
    def test_float_to_int_truncates(self):
        assert cast_value(2.9, DataType.INTEGER) == 2
        assert cast_value(-2.9, DataType.INTEGER) == -2

    def test_text_to_int(self):
        assert cast_value("17", DataType.INTEGER) == 17

    def test_null_passes(self):
        assert cast_value(None, DataType.TEXT) is None

    def test_bad_cast_raises_execution_error(self):
        with pytest.raises(ExecutionError):
            cast_value("zebra", DataType.INTEGER)

    def test_cast_expression_compiles(self):
        expr = ast.Cast(lit("1989-02-06"), DataType.DATE)
        assert ev(expr) == datetime.date(1989, 2, 6)


class TestFunctionsAndConcat:
    def test_concat(self):
        assert ev(ast.BinaryOp("||", lit("ab"), lit("cd"))) == "abcd"
        assert ev(ast.BinaryOp("||", lit("ab"), lit(None))) is None

    def test_null_propagating_function(self):
        expr = ast.FunctionCall("UPPER", (lit(None),))
        assert ev(expr) is None

    def test_coalesce_is_null_aware(self):
        expr = ast.FunctionCall("COALESCE", (lit(None), lit(7)))
        assert ev(expr) == 7

    def test_is_null(self):
        assert ev(ast.IsNull(lit(None), False)) is True
        assert ev(ast.IsNull(lit(1), True)) is True


class TestLayouts:
    def test_bound_ref_reads_position(self):
        a = RelColumn("a", DataType.INTEGER)
        b = RelColumn("b", DataType.INTEGER)
        fn = compile_expression(
            ast.BinaryOp("+", a.ref(), b.ref()), build_layout([a, b])
        )
        assert fn((2, 3)) == 5

    def test_missing_column_raises_at_compile_time(self):
        orphan = RelColumn("ghost", DataType.INTEGER)
        with pytest.raises(ExecutionError):
            compile_expression(orphan.ref(), {})

    def test_subquery_nodes_rejected(self):
        select = ast.Select(items=[ast.SelectItem(lit(1))])
        with pytest.raises(ExecutionError):
            compile_expression(ast.Exists(select, False), {})


class TestInferType:
    def test_comparison_is_boolean(self):
        assert infer_type(ast.BinaryOp("<", lit(1), lit(2))) == DataType.BOOLEAN

    def test_incomparable_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.BinaryOp("<", lit("x"), lit(1)))

    def test_like_requires_text(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.BinaryOp("LIKE", lit(1), lit("%")))

    def test_case_unifies_branches(self):
        expr = ast.Case(None, ((lit(True), lit(1)),), lit(2.5))
        assert infer_type(expr) == DataType.FLOAT

    def test_aggregate_rejected_in_scalar_context(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.FunctionCall("SUM", (lit(1),)))

    def test_unresolved_column_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.ColumnRef(None, "x"))


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_property_arithmetic_matches_python(a, b):
    assert ev(ast.BinaryOp("+", lit(a), lit(b))) == a + b
    assert ev(ast.BinaryOp("*", lit(a), lit(b))) == a * b
    assert ev(ast.BinaryOp("-", lit(a), lit(b))) == a - b


@given(st.text(max_size=10), st.text(max_size=6))
def test_property_like_literal_no_wildcards(value, other):
    # Without wildcards, LIKE is exact string equality.
    pattern = value.replace("%", "").replace("_", "")
    expr = ast.BinaryOp("LIKE", lit(pattern), lit(pattern))
    assert ev(expr) is True
    if other not in (pattern,) and "%" not in other and "_" not in other:
        assert ev(ast.BinaryOp("LIKE", lit(other), lit(pattern))) is (other == pattern)
