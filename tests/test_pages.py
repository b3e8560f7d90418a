"""Columnar pages and vectorized kernels.

Three layers of pinning for the columnar engine:

* ``Page`` itself — transposition bridges, row-compatible protocol
  (iteration, indexing, equality against row lists), selection.
* Every vectorized kernel family agrees with the row compiler
  (``compile_expression`` / ``compile_predicate`` looped per row) on
  NULL-heavy inputs: arithmetic, comparisons, three-valued AND/OR/NOT,
  LIKE, scalar functions, CASE, CAST, IN lists, IS NULL, BETWEEN, and
  constant folding.
* Whole-query equivalence over the TPC-H-lite workload: rows match the
  reference interpreter, and rows and network accounting are
  bit-identical across batch sizes {1, 7, 1024}, sequential and
  parallel, down to exact network-byte accounting.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PlannerOptions
from repro.core.expressions import (
    build_layout,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.core.logical import RelColumn
from repro.core.pages import Page
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.sql import ast
from repro.workloads import WORKLOAD_QUERIES

from .conftest import assert_same_rows
from .reference import compile_expression, compile_predicate, reference_query

INT = DataType.INTEGER
TEXT = DataType.TEXT
FLOAT = DataType.FLOAT
BOOL = DataType.BOOLEAN


# ---------------------------------------------------------------------------
# the Page type
# ---------------------------------------------------------------------------


class TestPage:
    ROWS = [(1, "x"), (2, None), (None, "z")]

    def test_from_rows_to_rows_round_trip(self):
        page = Page.from_rows(self.ROWS)
        assert page.columns == [[1, 2, None], ["x", None, "z"]]
        assert page.num_rows == 3 and page.width == 2
        assert page.to_rows() == self.ROWS

    def test_from_rows_empty_needs_width(self):
        page = Page.from_rows([], width=3)
        assert page.width == 3 and page.num_rows == 0
        assert Page.empty(2).columns == [[], []]

    def test_zero_column_page_keeps_row_count(self):
        page = Page([], 4)
        assert len(page) == 4
        assert page.to_rows() == [(), (), (), ()]
        assert list(page) == [(), (), (), ()]

    def test_len_bool_iter(self):
        page = Page.from_rows(self.ROWS)
        assert len(page) == 3 and bool(page)
        assert not Page.empty(2)
        assert list(page) == self.ROWS

    def test_int_indexing_and_bounds(self):
        page = Page.from_rows(self.ROWS)
        assert page[0] == (1, "x")
        assert page[-1] == (None, "z")
        with pytest.raises(IndexError):
            page[3]
        with pytest.raises(IndexError):
            page[-4]

    def test_slicing_returns_page(self):
        page = Page.from_rows(self.ROWS)
        tail = page[1:]
        assert isinstance(tail, Page)
        assert tail == self.ROWS[1:]
        assert page[:0].width == 2  # empty slice keeps the shape

    def test_take_gathers_rows(self):
        page = Page.from_rows(self.ROWS)
        assert page.take([2, 0]) == [(None, "z"), (1, "x")]
        assert page.take([]).width == 2

    def test_equality_against_row_lists_and_pages(self):
        page = Page.from_rows(self.ROWS)
        assert page == self.ROWS
        assert page == Page.from_rows(self.ROWS)
        assert page != self.ROWS[:2]
        assert page != Page.from_rows(self.ROWS[:2])


# ---------------------------------------------------------------------------
# vectorized kernels vs row compilations
# ---------------------------------------------------------------------------

COLS = [
    RelColumn("a", INT),
    RelColumn("b", TEXT),
    RelColumn("c", FLOAT),
    RelColumn("d", BOOL),
]
LAYOUT = build_layout(COLS)
A, B, C, D = (col.ref() for col in COLS)

NULL_HEAVY = Page.from_rows(
    [
        (1, "apple", 1.5, True),
        (None, None, None, None),
        (3, "banana", -2.0, False),
        (4, "", 0.0, None),
        (None, "cherry", 3.25, True),
        (7, "a%b_c", None, False),
    ]
)


def lit(value, dtype=INT):
    return ast.Literal(value, dtype)


NULL_LIT = ast.Literal(None, DataType.NULL)


def row_values(expr, page):
    """The row compiler's answer for every row of ``page``."""
    fn = compile_expression(expr, LAYOUT)
    return [fn(row) for row in page]


def row_survivors(expr, page):
    """The rows of ``page`` the row compiler's predicate keeps."""
    keep = compile_predicate(expr, LAYOUT)
    return [row for row in page if keep(row)]

KERNEL_EXPRESSIONS = [
    ("add-columns", ast.BinaryOp("+", A, A)),
    ("add-constant-folded", ast.BinaryOp("+", A, lit(10))),
    ("sub-constant-left", ast.BinaryOp("-", lit(100), A)),
    ("mul", ast.BinaryOp("*", A, C)),
    ("div-by-zero-is-null", ast.BinaryOp("/", A, lit(0))),
    ("mod", ast.BinaryOp("%", A, lit(2))),
    ("concat", ast.BinaryOp("||", B, lit("!", TEXT))),
    ("null-literal-folds", ast.BinaryOp("+", A, NULL_LIT)),
    ("compare-gt", ast.BinaryOp(">", A, lit(2))),
    ("compare-eq-text", ast.BinaryOp("=", B, lit("apple", TEXT))),
    ("compare-columns", ast.BinaryOp("<=", A, A)),
    ("and-3vl", ast.BinaryOp("AND", ast.BinaryOp(">", A, lit(2)), D)),
    ("or-3vl", ast.BinaryOp("OR", D, ast.IsNull(A))),
    ("not-3vl", ast.UnaryOp("NOT", D)),
    ("negate", ast.UnaryOp("-", A)),
    ("like-constant-pattern", ast.BinaryOp("LIKE", B, lit("a%", TEXT))),
    ("like-wildcards", ast.BinaryOp("LIKE", B, lit("%an_na%", TEXT))),
    ("like-dynamic-pattern", ast.BinaryOp("LIKE", B, B)),
    ("function-1arg", ast.FunctionCall("UPPER", (B,))),
    ("function-length", ast.FunctionCall("LENGTH", (B,))),
    ("function-abs", ast.FunctionCall("ABS", (C,))),
    ("function-multi-arg", ast.FunctionCall("COALESCE", (B, lit("?", TEXT)))),
    (
        "case-searched",
        ast.Case(
            None,
            (
                (ast.BinaryOp(">", A, lit(3)), lit("big", TEXT)),
                (ast.IsNull(A), lit("none", TEXT)),
            ),
            lit("small", TEXT),
        ),
    ),
    (
        "case-simple-no-else",
        ast.Case(
            B,
            (
                (lit("apple", TEXT), lit(1)),
                (lit("banana", TEXT), lit(2)),
            ),
            None,
        ),
    ),
    ("cast-int-to-text", ast.Cast(A, TEXT)),
    ("cast-float-to-int", ast.Cast(C, INT)),
    ("in-constant-list", ast.InList(A, (lit(1), lit(3)))),
    ("in-list-with-null-3vl", ast.InList(A, (lit(1), NULL_LIT))),
    ("not-in-with-null-3vl", ast.InList(A, (lit(1), NULL_LIT), negated=True)),
    ("in-dynamic-items", ast.InList(A, (lit(7), ast.BinaryOp("+", A, lit(0))))),
    ("is-null", ast.IsNull(A)),
    ("is-not-null", ast.IsNull(A, negated=True)),
    ("between", ast.Between(A, lit(2), lit(5))),
    ("not-between", ast.Between(A, lit(2), lit(5), negated=True)),
]


@pytest.mark.parametrize(
    "expr", [e for _, e in KERNEL_EXPRESSIONS],
    ids=[name for name, _ in KERNEL_EXPRESSIONS],
)
def test_vectorized_kernel_matches_row_kernel(expr):
    vector_fn = compile_batch_expression(expr, LAYOUT)
    assert vector_fn(NULL_HEAVY) == row_values(expr, NULL_HEAVY)
    assert vector_fn(Page.empty(len(COLS))) == []


@pytest.mark.parametrize(
    "expr", [e for _, e in KERNEL_EXPRESSIONS],
    ids=[name for name, _ in KERNEL_EXPRESSIONS],
)
def test_vectorized_predicate_matches_row_predicate(expr):
    vector_fn = compile_batch_predicate(expr, LAYOUT)
    # WHERE semantics: only rows where the predicate is exactly TRUE pass
    # (NULL drops the row) — identical surviving rows in both compilers.
    assert vector_fn(NULL_HEAVY).to_rows() == row_survivors(expr, NULL_HEAVY)


def test_all_pass_predicate_returns_input_page_unchanged():
    always = ast.IsNull(A, negated=False)
    page = Page.from_rows([(None, "x", 0.5, True), (None, None, None, None)])
    selected = compile_batch_predicate(always, LAYOUT)(page)
    assert selected is page  # zero-copy when nothing is filtered


def test_vectorized_rejects_aggregates_like_row_compiler():
    count = ast.FunctionCall("COUNT", (), star=True)
    with pytest.raises(ExecutionError):
        compile_batch_expression(count, LAYOUT)
    with pytest.raises(ExecutionError):
        compile_expression(count, LAYOUT)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-50, 50)),
            st.one_of(st.none(), st.text("ab%_", max_size=4)),
            st.one_of(st.none(), st.floats(-10, 10, allow_nan=False)),
            st.one_of(st.none(), st.booleans()),
        ),
        max_size=40,
    )
)
def test_fuzzed_kernels_match_row_engine(rows):
    page = Page.from_rows(rows, width=len(COLS))
    compound = ast.BinaryOp(
        "OR",
        ast.BinaryOp(
            "AND",
            ast.BinaryOp(">", ast.BinaryOp("+", A, lit(1)), lit(0)),
            ast.BinaryOp("LIKE", B, lit("a%", TEXT)),
        ),
        ast.IsNull(C),
    )
    for expr in (compound, ast.BinaryOp("*", A, C), ast.UnaryOp("NOT", D)):
        assert compile_batch_expression(expr, LAYOUT)(page) == row_values(expr, page)
    predicate = compile_batch_predicate(compound, LAYOUT)
    assert predicate(page).to_rows() == row_survivors(compound, page)


# ---------------------------------------------------------------------------
# whole-query equivalence over TPC-H-lite
# ---------------------------------------------------------------------------

_INT_METRICS = ("rows_shipped", "messages", "fragments_executed",
                "semijoin_batches")
_FLOAT_METRICS = ("bytes_shipped", "network_ms")

_default_cache = {}


def _default(federation, name, sql):
    """The default configuration's result, its rows checked against the
    reference interpreter the first time a query is seen."""
    if name not in _default_cache:
        result = federation.gis.query(sql)
        _, reference = reference_query(federation.gis, sql)
        assert_same_rows(result.rows, reference)
        _default_cache[name] = result
    return _default_cache[name]


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("parallel", [1, 4], ids=["sequential", "parallel"])
@pytest.mark.parametrize(
    "name,sql", WORKLOAD_QUERIES, ids=[name for name, _ in WORKLOAD_QUERIES]
)
def test_columnar_engine_equivalent_over_workload(
    federation, name, sql, batch_size, parallel
):
    default = _default(federation, name, sql)
    result = federation.gis.query(
        sql,
        PlannerOptions(
            batch_size=batch_size, max_parallel_fragments=parallel
        ),
    )
    assert result.rows == default.rows
    exact_floats = parallel == 1
    for metric in _INT_METRICS:
        actual = getattr(result.metrics.network, metric)
        expected = getattr(default.metrics.network, metric)
        assert actual == expected, metric
    for metric in _FLOAT_METRICS:
        actual = getattr(result.metrics.network, metric)
        expected = getattr(default.metrics.network, metric)
        if exact_floats:
            assert actual == expected, metric
        else:
            # Floats accumulate in worker-completion order under the
            # parallel scheduler; integer accounting above stays exact.
            assert actual == pytest.approx(expected), metric
