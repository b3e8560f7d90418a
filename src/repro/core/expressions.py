"""Expression type inference and compilation to vectorized kernels.

Bound expressions (leaves are :class:`~repro.sql.ast.BoundRef` /
:class:`~repro.sql.ast.Literal`) are compiled once per physical operator
into kernels over columnar :class:`~repro.core.pages.Page` objects: one
tight loop per expression node over whole column vectors. This is the
engine's one expression compiler; filters, projections, join keys,
aggregate arguments, sort and window keys, the REST wrapper's filter and
constant folding all run on it. NULL is represented by ``None`` and the
kernels implement SQL three-valued logic:

* comparisons and arithmetic propagate NULL;
* ``AND`` / ``OR`` follow Kleene logic;
* ``IN`` returns NULL (not FALSE) when no element matches but one is NULL;
* division by zero yields NULL (SQLite-compatible; documented deviation
  from engines that raise).

``AND``, ``OR``, ``CASE`` and ``IN`` lists are lazy per row, as SQL
engines are: an operand, branch or list item runs only over the rows that
still need it, so a guarded ``CAST`` never sees the rows its guard
excludes.
"""

from __future__ import annotations

import operator
import re
from itertools import compress, repeat
from operator import is_, is_not, not_
from typing import Any, Callable, Dict, List, Sequence

from ..datatypes import (
    DataType,
    arithmetic_result,
    coerce_value,
    is_comparable,
    unify,
)
from ..errors import ExecutionError, TypeCheckError
from ..sql import ast
from ..sql.functions import is_aggregate_name, lookup_scalar
from .pages import Page

#: Batch kernel: page in, column vector out.
VectorFunction = Callable[[Page], List[Any]]

#: Batch predicate kernel: the surviving rows of a page, as a page.
BatchPredicate = Callable[[Page], Page]

# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------


def infer_type(expr: ast.Expr) -> DataType:
    """Static type of a bound expression; raises TypeCheckError on misuse.

    Aggregate function calls are rejected here — the analyzer replaces them
    with references to aggregate output columns before any residual
    expression reaches type checking.
    """
    if isinstance(expr, ast.Literal):
        return expr.dtype
    if isinstance(expr, ast.BoundRef):
        return expr.column.dtype
    if isinstance(expr, ast.ColumnRef):
        raise TypeCheckError(f"unresolved column reference: {expr.name!r}")
    if isinstance(expr, ast.BinaryOp):
        return _infer_binary(expr)
    if isinstance(expr, ast.UnaryOp):
        operand = infer_type(expr.operand)
        if expr.op == "NOT":
            if operand not in (DataType.BOOLEAN, DataType.NULL):
                raise TypeCheckError(f"NOT requires a BOOLEAN operand, got {operand}")
            return DataType.BOOLEAN
        if operand == DataType.NULL:
            return DataType.NULL
        if operand not in (DataType.INTEGER, DataType.FLOAT):
            raise TypeCheckError(f"unary minus requires a numeric operand, got {operand}")
        return operand
    if isinstance(expr, ast.FunctionCall):
        if is_aggregate_name(expr.name):
            raise TypeCheckError(
                f"aggregate {expr.name} is not allowed in this context"
            )
        function = lookup_scalar(expr.name)
        return function.type_rule([infer_type(arg) for arg in expr.args])
    if isinstance(expr, ast.Case):
        return _infer_case(expr)
    if isinstance(expr, ast.Cast):
        infer_type(expr.operand)  # operand must itself be well-typed
        return expr.dtype
    if isinstance(expr, (ast.InList, ast.InSubquery)):
        operand = infer_type(expr.operand)
        if isinstance(expr, ast.InList):
            for item in expr.items:
                item_type = infer_type(item)
                if not is_comparable(operand, item_type):
                    raise TypeCheckError(
                        f"IN list item type {item_type} is not comparable to {operand}"
                    )
        return DataType.BOOLEAN
    if isinstance(expr, ast.Exists):
        return DataType.BOOLEAN
    if isinstance(expr, ast.IsNull):
        infer_type(expr.operand)
        return DataType.BOOLEAN
    if isinstance(expr, ast.Between):
        operand = infer_type(expr.operand)
        for bound in (expr.low, expr.high):
            bound_type = infer_type(bound)
            if not is_comparable(operand, bound_type):
                raise TypeCheckError(
                    f"BETWEEN bound type {bound_type} is not comparable to {operand}"
                )
        return DataType.BOOLEAN
    if isinstance(expr, ast.WindowFunction):
        return window_result_type(expr)
    raise TypeCheckError(f"cannot type expression node {type(expr).__name__}")


RANKING_WINDOW_FUNCTIONS = frozenset({"ROW_NUMBER", "RANK", "DENSE_RANK"})


def window_result_type(window: "ast.WindowFunction") -> DataType:
    """Static result type of a window function (also validates its shape)."""
    from ..sql.functions import aggregate_result_type

    name = window.name.upper()
    if name in RANKING_WINDOW_FUNCTIONS:
        if window.args or window.star:
            raise TypeCheckError(f"{name} takes no arguments")
        if not window.order_by:
            raise TypeCheckError(f"{name} requires an ORDER BY in its OVER clause")
        return DataType.INTEGER
    if is_aggregate_name(name):
        if window.star:
            return aggregate_result_type(name, None)
        if len(window.args) != 1:
            raise TypeCheckError(f"{name} OVER takes exactly one argument")
        return aggregate_result_type(name, infer_type(window.args[0]))
    raise TypeCheckError(f"unknown window function: {window.name}")


def _infer_binary(expr: ast.BinaryOp) -> DataType:
    left = infer_type(expr.left)
    right = infer_type(expr.right)
    op = expr.op
    if op in ast.ARITHMETIC_OPS:
        return arithmetic_result(left, right, op)
    if op in ast.COMPARISON_OPS:
        if not is_comparable(left, right):
            raise TypeCheckError(f"cannot compare {left} with {right}")
        return DataType.BOOLEAN
    if op in ast.LOGICAL_OPS:
        for side in (left, right):
            if side not in (DataType.BOOLEAN, DataType.NULL):
                raise TypeCheckError(f"{op} requires BOOLEAN operands, got {side}")
        return DataType.BOOLEAN
    if op == "LIKE":
        for side in (left, right):
            if side not in (DataType.TEXT, DataType.NULL):
                raise TypeCheckError(f"LIKE requires TEXT operands, got {side}")
        return DataType.BOOLEAN
    if op == "||":
        for side in (left, right):
            if side not in (DataType.TEXT, DataType.NULL):
                raise TypeCheckError(f"|| requires TEXT operands, got {side}")
        return DataType.TEXT
    raise TypeCheckError(f"unknown binary operator {op!r}")


def _infer_case(expr: ast.Case) -> DataType:
    if expr.operand is not None:
        operand = infer_type(expr.operand)
        for when, _ in expr.whens:
            when_type = infer_type(when)
            if not is_comparable(operand, when_type):
                raise TypeCheckError(
                    f"CASE operand type {operand} is not comparable to {when_type}"
                )
    else:
        for when, _ in expr.whens:
            when_type = infer_type(when)
            if when_type not in (DataType.BOOLEAN, DataType.NULL):
                raise TypeCheckError("CASE WHEN condition must be BOOLEAN")
    result = DataType.NULL
    for _, then in expr.whens:
        result = unify(result, infer_type(then))
    if expr.else_result is not None:
        result = unify(result, infer_type(expr.else_result))
    return result


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def build_layout(columns: Sequence[Any]) -> Dict[int, int]:
    """Map RelColumn ids to row positions for a physical operator's input."""
    return {column.column_id: index for index, column in enumerate(columns)}


def compile_batch_expression(
    expr: ast.Expr, layout: Dict[int, int]
) -> VectorFunction:
    """Compile a bound expression into ``fn(page) -> [value, ...]``.

    The kernel evaluates the expression over a whole
    :class:`~repro.core.pages.Page` column-at-a-time: literals broadcast,
    column references return the page's column vector (zero copy), and
    compound expressions run one tight loop per node over the operand
    vectors instead of one closure call per row per node. NULL (``None``)
    propagates inside each loop.
    """
    return _compile_vector(expr, layout)


def compile_batch_predicate(
    expr: ast.Expr, layout: Dict[int, int]
) -> BatchPredicate:
    """Compile a predicate into ``fn(page) -> page of surviving rows``.

    WHERE semantics: rows whose predicate evaluates to NULL (or FALSE)
    are dropped. The kernel computes a boolean mask column, normalizes it
    to strict ``is True`` selectors in one C pass, then slices every
    column with ``itertools.compress`` — no index vector, no per-row
    gather calls. A fully-passing page is returned as-is (zero copy).
    """
    vector = _compile_vector(expr, layout)

    def select(page: Page) -> Page:
        mask = vector(page)
        # `is True` (not truthiness) drops NULLs, per WHERE semantics.
        selectors = list(map(is_, mask, repeat(True)))
        selected = selectors.count(True)
        if selected == page.num_rows:
            return page
        return Page(
            [list(compress(column, selectors)) for column in page.columns],
            selected,
        )

    return select


def evaluate_constant(expr: ast.Expr) -> Any:
    """Evaluate an expression with no column references (for constant
    folding): its vector kernel over one zero-column, one-row page."""
    return _compile_vector(expr, {})(Page([], 1))[0]


def _layout_position(expr: "ast.BoundRef", layout: Dict[int, int]) -> int:
    position = layout.get(expr.column.column_id)
    if position is None:
        raise ExecutionError(
            f"column {expr.column.name!r} (id {expr.column.column_id}) "
            "is not available in this operator's input"
        )
    return position


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        return None  # SQLite-compatible: x / 0 is NULL
    result = a / b
    return result


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        return None
    # SQL MOD truncates toward zero (unlike Python's floor semantics).
    return a - b * int(a / b)


# The vector kernels run once per value inside a tight list comprehension,
# so each call's frame overhead is the dominant cost; the C-implemented
# ``operator`` functions halve it versus Python lambdas. ``/`` and ``%``
# are Python kernels for NULL-on-zero semantics, and ``||`` maps to
# ``operator.add`` (NULL operands are screened before the kernel runs).
_VECTOR_KERNELS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "||": operator.add,
}

_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def like_pattern_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern to a compiled anchored regex.

    ``%`` matches any run (including empty); ``_`` matches one character;
    everything else is literal. Case-sensitive, per the SQL standard.
    """
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is not None:
        return compiled
    pieces: List[str] = []
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    compiled = re.compile("".join(pieces) + r"\Z", re.DOTALL)
    if len(_LIKE_CACHE) < 1024:
        _LIKE_CACHE[pattern] = compiled
    return compiled


def cast_value(value: Any, dtype: DataType) -> Any:
    """SQL CAST semantics (NULL passes through; FLOAT→INTEGER truncates)."""
    if value is None:
        return None
    if dtype == DataType.INTEGER and isinstance(value, float):
        return int(value)  # truncation toward zero, per SQL CAST
    try:
        return coerce_value(value, dtype)
    except TypeCheckError as exc:
        raise ExecutionError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Vectorized compilation: page in, column vector out
# ---------------------------------------------------------------------------
#
# Each node emits a kernel over column vectors, with NULL in-band. Kernels
# are not total: CAST raises on a value it cannot convert. So the
# conditional nodes evaluate lazily, gathering the rows that still need an
# operand (``Page.take``) and scattering its results back: AND/OR run the
# right operand only where the left leaves the row undecided, CASE runs
# each WHEN only over the rows no earlier WHEN matched, each THEN only over
# the rows its WHEN selected and the ELSE only over the rows left over, and
# an IN list runs each item only over the rows no earlier item matched.


def _compile_vector(expr: ast.Expr, layout: Dict[int, int]) -> VectorFunction:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda page: [value] * page.num_rows
    if isinstance(expr, ast.BoundRef):
        position = _layout_position(expr, layout)
        return lambda page: page.columns[position]
    if isinstance(expr, ast.BinaryOp):
        return _vector_binary(expr, layout)
    if isinstance(expr, ast.UnaryOp):
        operand = _compile_vector(expr.operand, layout)
        if expr.op == "NOT":
            return lambda page: [
                None if value is None else (not value) for value in operand(page)
            ]
        return lambda page: [
            None if value is None else -value for value in operand(page)
        ]
    if isinstance(expr, ast.FunctionCall):
        return _vector_function(expr, layout)
    if isinstance(expr, ast.Case):
        return _vector_case(expr, layout)
    if isinstance(expr, ast.Cast):
        operand = _compile_vector(expr.operand, layout)
        target = expr.dtype
        return lambda page: [cast_value(value, target) for value in operand(page)]
    if isinstance(expr, ast.InList):
        return _vector_in_list(expr, layout)
    if isinstance(expr, ast.IsNull):
        operand = _compile_vector(expr.operand, layout)
        if expr.negated:
            return lambda page: [value is not None for value in operand(page)]
        return lambda page: [value is None for value in operand(page)]
    if isinstance(expr, ast.Between):
        return _vector_between(expr, layout)
    if isinstance(expr, (ast.InSubquery, ast.Exists)):
        raise ExecutionError(
            "subquery expressions must be decorrelated into joins before execution"
        )
    if isinstance(expr, ast.WindowFunction):
        raise ExecutionError(
            "window functions must be planned into a WindowOp before execution"
        )
    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def _vector_binary(expr: ast.BinaryOp, layout: Dict[int, int]) -> VectorFunction:
    op = expr.op
    if op in ("AND", "OR"):
        return _vector_kleene(expr, layout)
    if op == "LIKE":
        return _vector_like(expr, layout)
    kernel = _VECTOR_KERNELS.get(op)
    if kernel is None:
        raise ExecutionError(f"unknown binary operator {op!r}")
    # Constant folding: a literal operand broadcasts as a bound scalar
    # instead of materializing a constant column.
    if isinstance(expr.right, ast.Literal):
        constant = expr.right.value
        left = _compile_vector(expr.left, layout)
        if constant is None:
            return lambda page: [None] * page.num_rows
        return lambda page: [
            None if value is None else kernel(value, constant)
            for value in left(page)
        ]
    if isinstance(expr.left, ast.Literal):
        constant = expr.left.value
        right = _compile_vector(expr.right, layout)
        if constant is None:
            return lambda page: [None] * page.num_rows
        return lambda page: [
            None if value is None else kernel(constant, value)
            for value in right(page)
        ]
    left = _compile_vector(expr.left, layout)
    right = _compile_vector(expr.right, layout)

    return lambda page: [
        None if (lhs is None or rhs is None) else kernel(lhs, rhs)
        for lhs, rhs in zip(left(page), right(page))
    ]


def _scatter(out: List[Any], positions: Sequence[int], values: List[Any]) -> None:
    """Write ``values`` into ``out`` at ``positions``, pairwise."""
    for position, value in zip(positions, values):
        out[position] = value


def _vector_kleene(expr: ast.BinaryOp, layout: Dict[int, int]) -> VectorFunction:
    """Kleene AND/OR; the right operand runs only over undecided rows."""
    left = _compile_vector(expr.left, layout)
    right = _compile_vector(expr.right, layout)
    # The left value that decides a row on its own: FALSE for AND, TRUE
    # for OR. A row where neither side decides is NULL if either side is
    # NULL, else the other truth value.
    decisive = expr.op == "OR"
    other = not decisive

    def kleene(page: Page) -> List[Any]:
        lhs = left(page)
        undecided = list(
            compress(range(page.num_rows), map(is_not, lhs, repeat(decisive)))
        )
        every_row = len(undecided) == page.num_rows
        rhs_column = right(page if every_row else page.take(undecided))
        values = [
            decisive
            if rhs is decisive
            else (None if (lhs[index] is None or rhs is None) else other)
            for index, rhs in zip(undecided, rhs_column)
        ]
        if every_row:
            return values
        out = [decisive] * page.num_rows
        _scatter(out, undecided, values)
        return out

    return kleene


def _vector_like(expr: ast.BinaryOp, layout: Dict[int, int]) -> VectorFunction:
    left = _compile_vector(expr.left, layout)
    pattern_expr = expr.right
    if isinstance(pattern_expr, ast.Literal) and isinstance(pattern_expr.value, str):
        match = like_pattern_to_regex(pattern_expr.value).match
        return lambda page: [
            None if value is None else match(value) is not None
            for value in left(page)
        ]
    right = _compile_vector(pattern_expr, layout)

    def like_dynamic(page: Page) -> List[Any]:
        return [
            None
            if (value is None or pattern is None)
            else like_pattern_to_regex(pattern).match(value) is not None
            for value, pattern in zip(left(page), right(page))
        ]

    return like_dynamic


def _vector_function(expr: ast.FunctionCall, layout: Dict[int, int]) -> VectorFunction:
    if is_aggregate_name(expr.name):
        raise ExecutionError(
            f"aggregate {expr.name} reached the scalar compiler; "
            "the analyzer must rewrite aggregates into aggregate columns"
        )
    function = lookup_scalar(expr.name)
    arg_vectors = [_compile_vector(arg, layout) for arg in expr.args]
    implementation = function.implementation
    if not arg_vectors:
        return lambda page: [implementation() for _ in range(page.num_rows)]
    if function.null_propagating:
        if len(arg_vectors) == 1:
            arg0 = arg_vectors[0]
            return lambda page: [
                None if value is None else implementation(value)
                for value in arg0(page)
            ]

        def call(page: Page) -> List[Any]:
            columns = [vector(page) for vector in arg_vectors]
            return [
                None
                if any(value is None for value in values)
                else implementation(*values)
                for values in zip(*columns)
            ]

        return call

    def call_null_aware(page: Page) -> List[Any]:
        columns = [vector(page) for vector in arg_vectors]
        return [implementation(*values) for values in zip(*columns)]

    return call_null_aware


def _vector_case(expr: ast.Case, layout: Dict[int, int]) -> VectorFunction:
    whens = [
        (_compile_vector(when, layout), _compile_vector(then, layout))
        for when, then in expr.whens
    ]
    else_vector = (
        _compile_vector(expr.else_result, layout)
        if expr.else_result is not None
        else None
    )
    operand_vector = (
        _compile_vector(expr.operand, layout) if expr.operand is not None else None
    )

    def case(page: Page) -> List[Any]:
        out: List[Any] = [None] * page.num_rows
        # The rows no WHEN has matched yet, and their positions in ``page``
        # (None while that is every row, in order).
        rows = page
        positions: Any = None
        operand_col = operand_vector(page) if operand_vector is not None else None
        for when_vector, then_vector in whens:
            if not rows.num_rows:
                break
            condition = when_vector(rows)
            if operand_col is None:
                matched = list(map(is_, condition, repeat(True)))
            else:
                matched = [
                    value is not None and candidate is not None and value == candidate
                    for value, candidate in zip(operand_col, condition)
                ]
            hits = list(compress(range(rows.num_rows), matched))
            if not hits:
                continue
            if len(hits) == rows.num_rows:
                if positions is None:
                    return then_vector(rows)
                _scatter(out, positions, then_vector(rows))
                return out
            then_col = then_vector(rows.take(hits))
            _scatter(
                out,
                hits if positions is None else [positions[i] for i in hits],
                then_col,
            )
            misses = list(compress(range(rows.num_rows), map(not_, matched)))
            positions = (
                misses if positions is None else [positions[i] for i in misses]
            )
            rows = rows.take(misses)
            if operand_col is not None:
                operand_col = [operand_col[i] for i in misses]
        if else_vector is not None and rows.num_rows:
            if positions is None:
                return else_vector(page)
            _scatter(out, positions, else_vector(rows))
        return out

    return case


def _vector_in_list(expr: ast.InList, layout: Dict[int, int]) -> VectorFunction:
    operand = _compile_vector(expr.operand, layout)
    negated = expr.negated
    if all(isinstance(item, ast.Literal) for item in expr.items):
        values = [item.value for item in expr.items]  # type: ignore[union-attr]
        has_null = any(value is None for value in values)
        try:
            lookup = frozenset(v for v in values if v is not None)
        except TypeError:  # unhashable? fall back to list scan
            lookup = None  # type: ignore[assignment]

        def in_constant_3vl(page: Page) -> List[Any]:
            out: List[Any] = []
            for value in operand(page):
                if value is None:
                    out.append(None)
                    continue
                if lookup is not None:
                    found = value in lookup
                else:
                    found = any(value == v for v in values if v is not None)
                if found:
                    out.append(False if negated else True)
                elif has_null:
                    out.append(None)
                else:
                    out.append(True if negated else False)
            return out

        return in_constant_3vl

    item_vectors = [_compile_vector(item, layout) for item in expr.items]

    def in_dynamic(page: Page) -> List[Any]:
        operand_col = operand(page)
        out: List[Any] = [None] * page.num_rows
        saw_null = [False] * page.num_rows
        # Each item runs only over the rows still open: a non-NULL operand
        # that no earlier item matched.
        open_rows = [i for i, value in enumerate(operand_col) if value is not None]
        for vector in item_vectors:
            if not open_rows:
                break
            candidates = vector(
                page if len(open_rows) == page.num_rows else page.take(open_rows)
            )
            still_open: List[int] = []
            for index, candidate in zip(open_rows, candidates):
                if candidate is None:
                    saw_null[index] = True
                    still_open.append(index)
                elif candidate == operand_col[index]:
                    out[index] = not negated
                else:
                    still_open.append(index)
            open_rows = still_open
        for index in open_rows:
            out[index] = None if saw_null[index] else negated
        return out

    return in_dynamic


def _vector_between(expr: ast.Between, layout: Dict[int, int]) -> VectorFunction:
    operand = _compile_vector(expr.operand, layout)
    low = _compile_vector(expr.low, layout)
    high = _compile_vector(expr.high, layout)
    negated = expr.negated

    def between(page: Page) -> List[Any]:
        out: List[Any] = []
        for value, low_value, high_value in zip(
            operand(page), low(page), high(page)
        ):
            if value is None or low_value is None or high_value is None:
                out.append(None)
            else:
                result = low_value <= value <= high_value
                out.append((not result) if negated else result)
        return out

    return between
