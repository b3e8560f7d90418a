"""The reference executor: the test suite's differential oracle.

A direct, unoptimized evaluation of any bound logical plan over full base
table scans, with its own row-at-a-time expression compiler. Tests run
:func:`reference_query` next to ``gis.query`` on the same SQL and compare
rows, which checks the optimizer, pushdown, fragment execution in the
wrappers and the engine's vectorized operators against code that shares
none of them (both sides read the same base rows through each wrapper's
``scan``).

It must stay independent of what it checks: it imports neither
``repro.core.physical`` nor ``repro.core.scheduler``, nor any batch
kernel (``compile_batch_*``, ``_vector_*``) —
``tests/test_reference_independence.py`` enforces that. What it does share
is scalar semantics with one definition (``cast_value``, LIKE patterns,
scalar functions, aggregate accumulators).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.aggregates import make_accumulator
from repro.core.analyzer import Analyzer
from repro.core.expressions import build_layout, cast_value, like_pattern_to_regex
from repro.core.logical import (
    AggregateCall,
    AggregateOp,
    DistinctOp,
    FilterOp,
    JoinOp,
    LimitOp,
    LogicalPlan,
    ProjectOp,
    RelColumn,
    RemoteQueryOp,
    ScanOp,
    SetDifferenceOp,
    SortOp,
    UnionOp,
    ValuesOp,
    WindowOp,
    WindowSpec,
)
from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.functions import is_aggregate_name, lookup_scalar
from repro.sql.parser import parse_select

Row = Tuple[Any, ...]
RowFunction = Callable[[Row], Any]

#: Provides base rows for a scan leaf: fn(scan_op) -> iterator of tuples.
ScanProvider = Callable[[ScanOp], Iterator[Row]]


def reference_query(gis, sql: str) -> Tuple[List[str], List[Row]]:
    """Evaluate ``sql`` on ``gis``'s tables with the reference executor.

    Bypasses the whole optimizer and executes the bound plan directly
    against full table scans through each table's wrapper.
    """
    bound = Analyzer(gis.catalog).bind_statement(parse_select(sql))

    def provide(scan: ScanOp) -> Iterator[Row]:
        return gis._scan_global(scan.table)

    names = [column.name for column in bound.output_columns]
    return names, list(interpret_plan(bound, provide))


# ---------------------------------------------------------------------------
# Plan interpretation
# ---------------------------------------------------------------------------


def interpret_plan(
    plan: LogicalPlan, scan_provider: ScanProvider
) -> Iterator[Tuple[Any, ...]]:
    """Directly evaluate a logical plan (reference semantics, no optimizer).

    Joins build a hash table when the condition is a conjunction of
    equalities, else fall back to nested loops; everything is evaluated
    eagerly enough to be obviously correct rather than fast.
    """
    if isinstance(plan, ScanOp):
        yield from scan_provider(plan)
        return
    if isinstance(plan, ValuesOp):
        yield from iter(plan.rows)
        return
    if isinstance(plan, RemoteQueryOp):
        raise ExecutionError(
            "the reference interpreter evaluates pre-pushdown plans only"
        )
    if isinstance(plan, FilterOp):
        layout = build_layout(plan.child.output_columns)
        predicate = compile_predicate(plan.predicate, layout)
        for row in interpret_plan(plan.child, scan_provider):
            if predicate(row):
                yield row
        return
    if isinstance(plan, ProjectOp):
        layout = build_layout(plan.child.output_columns)
        functions = [compile_expression(e, layout) for e in plan.expressions]
        for row in interpret_plan(plan.child, scan_provider):
            yield tuple(fn(row) for fn in functions)
        return
    if isinstance(plan, JoinOp):
        yield from _interpret_join(plan, scan_provider)
        return
    if isinstance(plan, AggregateOp):
        yield from _interpret_aggregate(plan, scan_provider)
        return
    if isinstance(plan, WindowOp):
        rows = list(interpret_plan(plan.child, scan_provider))
        yield from apply_window(rows, plan.child.output_columns, plan.specs)
        return
    if isinstance(plan, SortOp):
        layout = build_layout(plan.child.output_columns)
        key_fns = [compile_expression(expr, layout) for expr, _ in plan.keys]
        directions = [ascending for _, ascending in plan.keys]
        rows = list(interpret_plan(plan.child, scan_provider))
        yield from sort_rows(rows, key_fns, directions)
        return
    if isinstance(plan, LimitOp):
        remaining = plan.limit
        to_skip = plan.offset
        for row in interpret_plan(plan.child, scan_provider):
            if to_skip > 0:
                to_skip -= 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield row
        return
    if isinstance(plan, DistinctOp):
        seen = set()
        for row in interpret_plan(plan.child, scan_provider):
            if row not in seen:
                seen.add(row)
                yield row
        return
    if isinstance(plan, UnionOp):
        if plan.all:
            for child in plan.inputs:
                yield from interpret_plan(child, scan_provider)
            return
        seen = set()
        for child in plan.inputs:
            for row in interpret_plan(child, scan_provider):
                if row not in seen:
                    seen.add(row)
                    yield row
        return
    if isinstance(plan, SetDifferenceOp):
        left_rows = list(interpret_plan(plan.left, scan_provider))
        if plan.all:
            # Bag semantics: EXCEPT ALL subtracts multiplicities,
            # INTERSECT ALL takes their minimum.
            remaining = Counter(interpret_plan(plan.right, scan_provider))
            for row in left_rows:
                if remaining[row] > 0:
                    remaining[row] -= 1
                    if plan.operation == "INTERSECT":
                        yield row
                elif plan.operation == "EXCEPT":
                    yield row
            return
        right_rows = set(interpret_plan(plan.right, scan_provider))
        emitted = set()
        if plan.operation == "EXCEPT":
            for row in left_rows:
                if row not in right_rows and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        if plan.operation == "INTERSECT":
            for row in left_rows:
                if row in right_rows and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        raise ExecutionError(f"unknown set operation {plan.operation!r}")
    raise ExecutionError(f"cannot interpret plan node {type(plan).__name__}")


def _interpret_join(
    plan: JoinOp, scan_provider: ScanProvider
) -> Iterator[Tuple[Any, ...]]:
    left_columns = plan.left.output_columns
    right_columns = plan.right.output_columns
    left_rows = list(interpret_plan(plan.left, scan_provider))
    right_rows = list(interpret_plan(plan.right, scan_provider))

    if plan.kind == "CROSS":
        for left_row in left_rows:
            for right_row in right_rows:
                yield left_row + right_row
        return

    combined_layout = build_layout(list(left_columns) + list(right_columns))
    condition_fn = (
        compile_predicate(plan.condition, combined_layout)
        if plan.condition is not None
        else None
    )

    if plan.kind == "INNER":
        for left_row in left_rows:
            for right_row in right_rows:
                row = left_row + right_row
                if condition_fn is None or condition_fn(row):
                    yield row
        return
    if plan.kind == "LEFT":
        null_row = (None,) * len(right_columns)
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                row = left_row + right_row
                if condition_fn is None or condition_fn(row):
                    matched = True
                    yield row
            if not matched:
                yield left_row + null_row
        return
    if plan.kind in ("SEMI", "ANTI"):
        yield from _interpret_semi_anti(
            plan, left_rows, right_rows, right_columns, condition_fn
        )
        return
    raise ExecutionError(f"unknown join kind {plan.kind!r}")


def _interpret_semi_anti(
    plan: JoinOp,
    left_rows: List[Tuple[Any, ...]],
    right_rows: List[Tuple[Any, ...]],
    right_columns: Sequence[RelColumn],
    condition_fn: Optional[Callable[[Tuple[Any, ...]], bool]],
) -> Iterator[Tuple[Any, ...]]:
    if plan.kind == "ANTI" and plan.null_aware and plan.condition is not None:
        # NOT IN keeps a left row only if every comparison is FALSE: an
        # unknown (NULL) one drops it like a TRUE one.
        compare = compile_expression(
            plan.condition,
            build_layout(list(plan.left.output_columns) + list(right_columns)),
        )
        for left_row in left_rows:
            if all(compare(left_row + right_row) is False for right_row in right_rows):
                yield left_row
        return
    for left_row in left_rows:
        matched = False
        if condition_fn is None:
            matched = bool(right_rows)
        else:
            for right_row in right_rows:
                if condition_fn(left_row + right_row):
                    matched = True
                    break
        if matched == (plan.kind == "SEMI"):
            yield left_row


def apply_window(
    rows: List[Tuple[Any, ...]],
    columns: Sequence[RelColumn],
    specs: Sequence[WindowSpec],
) -> List[Tuple[Any, ...]]:
    """Evaluate window specs over materialized rows. Output preserves
    input order, with one appended column per spec."""
    layout = build_layout(columns)
    per_spec_values: List[List[Any]] = []
    for spec in specs:
        partition_fns = [compile_expression(p, layout) for p in spec.partition_by]
        order_fns = [
            (compile_expression(key, layout), ascending)
            for key, ascending in spec.order_keys
        ]
        partitions: Dict[Tuple[Any, ...], List[int]] = {}
        for index, row in enumerate(rows):
            key = tuple(fn(row) for fn in partition_fns)
            partitions.setdefault(key, []).append(index)
        values: List[Any] = [None] * len(rows)
        ranking = spec.function in ("ROW_NUMBER", "RANK", "DENSE_RANK")
        for indexes in partitions.values():
            if ranking:
                ordered = list(indexes)
                for fn, ascending in reversed(order_fns):
                    wrapper = sort_key_function(ascending)
                    ordered.sort(
                        key=lambda i, f=fn, w=wrapper: w(f(rows[i])),
                        reverse=not ascending,
                    )
                previous_key = object()
                rank = dense = 0
                for position, index in enumerate(ordered, start=1):
                    current_key = tuple(fn(rows[index]) for fn, _ in order_fns)
                    if current_key != previous_key:
                        rank = position
                        dense += 1
                        previous_key = current_key
                    values[index] = {
                        "ROW_NUMBER": position,
                        "RANK": rank,
                        "DENSE_RANK": dense,
                    }[spec.function]
            else:
                accumulator = make_accumulator(
                    AggregateCall(spec.function, spec.argument, False)
                )
                argument_fn = (
                    compile_expression(spec.argument, layout)
                    if spec.argument is not None
                    else None
                )
                for index in indexes:
                    accumulator.add(
                        argument_fn(rows[index]) if argument_fn is not None else 1
                    )
                result = accumulator.result()
                for index in indexes:
                    values[index] = result
        per_spec_values.append(values)
    return [
        row + tuple(values[index] for values in per_spec_values)
        for index, row in enumerate(rows)
    ]


def _interpret_aggregate(
    plan: AggregateOp, scan_provider: ScanProvider
) -> Iterator[Tuple[Any, ...]]:
    layout = build_layout(plan.child.output_columns)
    group_fns = [compile_expression(e, layout) for e in plan.group_expressions]
    argument_fns = [
        compile_expression(call.argument, layout) if call.argument is not None else None
        for call in plan.aggregates
    ]
    groups: Dict[Tuple[Any, ...], List[Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for row in interpret_plan(plan.child, scan_provider):
        key = tuple(fn(row) for fn in group_fns)
        state = groups.get(key)
        if state is None:
            state = [make_accumulator(call) for call in plan.aggregates]
            groups[key] = state
            order.append(key)
        for accumulator, arg_fn in zip(state, argument_fns):
            accumulator.add(arg_fn(row) if arg_fn is not None else 1)
    if not groups and not plan.group_expressions:
        # Global aggregate over empty input: one row of empty-group results.
        state = [make_accumulator(call) for call in plan.aggregates]
        yield tuple(acc.result() for acc in state)
        return
    for key in order:
        yield key + tuple(acc.result() for acc in groups[key])


# ---------------------------------------------------------------------------
# Row-at-a-time expression compiler
# ---------------------------------------------------------------------------


def compile_expression(expr: ast.Expr, layout: Dict[int, int]) -> RowFunction:
    """Compile a bound expression into ``fn(row) -> value``.

    ``layout`` maps :attr:`RelColumn.column_id` to row positions; a reference
    to a column missing from the layout is a physical-planning bug and raises
    immediately (not at run time).
    """
    return _compile(expr, layout)


def compile_predicate(expr: ast.Expr, layout: Dict[int, int]) -> RowFunction:
    """Compile a predicate; NULL results collapse to False (WHERE semantics)."""
    fn = _compile(expr, layout)

    def predicate(row: Tuple[Any, ...]) -> bool:
        return fn(row) is True

    return predicate


def _layout_position(expr: "ast.BoundRef", layout: Dict[int, int]) -> int:
    position = layout.get(expr.column.column_id)
    if position is None:
        raise ExecutionError(
            f"column {expr.column.name!r} (id {expr.column.column_id}) "
            "is not available in this operator's input"
        )
    return position


def _compile(expr: ast.Expr, layout: Dict[int, int]) -> RowFunction:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.BoundRef):
        position = _layout_position(expr, layout)
        return lambda row: row[position]
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout)
    if isinstance(expr, ast.UnaryOp):
        operand = _compile(expr.operand, layout)
        if expr.op == "NOT":
            def negate(row: Tuple[Any, ...]) -> Any:
                value = operand(row)
                return None if value is None else (not value)

            return negate

        def minus(row: Tuple[Any, ...]) -> Any:
            value = operand(row)
            return None if value is None else -value

        return minus
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, layout)
    if isinstance(expr, ast.Case):
        return _compile_case(expr, layout)
    if isinstance(expr, ast.Cast):
        operand = _compile(expr.operand, layout)
        target = expr.dtype

        def cast(row: Tuple[Any, ...]) -> Any:
            return cast_value(operand(row), target)

        return cast
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, layout)
    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, layout)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, ast.Between):
        return _compile_between(expr, layout)
    if isinstance(expr, (ast.InSubquery, ast.Exists)):
        raise ExecutionError(
            "subquery expressions must be decorrelated into joins before execution"
        )
    if isinstance(expr, ast.WindowFunction):
        raise ExecutionError(
            "window functions must be planned into a WindowOp before execution"
        )
    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def _compile_binary(expr: ast.BinaryOp, layout: Dict[int, int]) -> RowFunction:
    op = expr.op
    if op == "AND":
        left = _compile(expr.left, layout)
        right = _compile(expr.right, layout)

        def kleene_and(row: Tuple[Any, ...]) -> Any:
            lhs = left(row)
            if lhs is False:
                return False
            rhs = right(row)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return kleene_and
    if op == "OR":
        left = _compile(expr.left, layout)
        right = _compile(expr.right, layout)

        def kleene_or(row: Tuple[Any, ...]) -> Any:
            lhs = left(row)
            if lhs is True:
                return True
            rhs = right(row)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return kleene_or
    left = _compile(expr.left, layout)
    right = _compile(expr.right, layout)
    if op == "LIKE":
        return _compile_like(left, expr.right, right)
    # As in the engine's kernels, a NULL-literal operand yields NULL
    # without evaluating the other operand (which may raise, e.g. CAST).
    if any(
        isinstance(side, ast.Literal) and side.value is None
        for side in (expr.left, expr.right)
    ):
        return lambda row: None
    if op == "||":
        def concat(row: Tuple[Any, ...]) -> Any:
            lhs, rhs = left(row), right(row)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs

        return concat
    kernel = _BINARY_KERNELS.get(op)
    if kernel is None:
        raise ExecutionError(f"unknown binary operator {op!r}")

    def apply(row: Tuple[Any, ...]) -> Any:
        lhs, rhs = left(row), right(row)
        if lhs is None or rhs is None:
            return None
        return kernel(lhs, rhs)

    return apply


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


_BINARY_KERNELS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "%": _mod,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

def _compile_like(
    left: RowFunction, pattern_expr: ast.Expr, right: RowFunction
) -> RowFunction:
    if isinstance(pattern_expr, ast.Literal) and isinstance(pattern_expr.value, str):
        regex = like_pattern_to_regex(pattern_expr.value)

        def like_constant(row: Tuple[Any, ...]) -> Any:
            value = left(row)
            if value is None:
                return None
            return regex.match(value) is not None

        return like_constant

    def like_dynamic(row: Tuple[Any, ...]) -> Any:
        value, pattern = left(row), right(row)
        if value is None or pattern is None:
            return None
        return like_pattern_to_regex(pattern).match(value) is not None

    return like_dynamic


def _compile_function(expr: ast.FunctionCall, layout: Dict[int, int]) -> RowFunction:
    if is_aggregate_name(expr.name):
        raise ExecutionError(
            f"aggregate {expr.name} reached the scalar compiler; "
            "the analyzer must rewrite aggregates into aggregate columns"
        )
    function = lookup_scalar(expr.name)
    arg_fns = [_compile(arg, layout) for arg in expr.args]
    implementation = function.implementation
    if function.null_propagating:
        def call(row: Tuple[Any, ...]) -> Any:
            args = [fn(row) for fn in arg_fns]
            if any(arg is None for arg in args):
                return None
            return implementation(*args)

        return call

    def call_null_aware(row: Tuple[Any, ...]) -> Any:
        return implementation(*(fn(row) for fn in arg_fns))

    return call_null_aware


def _compile_case(expr: ast.Case, layout: Dict[int, int]) -> RowFunction:
    whens = [
        (_compile(when, layout), _compile(then, layout)) for when, then in expr.whens
    ]
    else_fn = (
        _compile(expr.else_result, layout) if expr.else_result is not None else None
    )
    if expr.operand is not None:
        operand = _compile(expr.operand, layout)

        def simple_case(row: Tuple[Any, ...]) -> Any:
            value = operand(row)
            for when_fn, then_fn in whens:
                candidate = when_fn(row)
                if value is not None and candidate is not None and value == candidate:
                    return then_fn(row)
            return else_fn(row) if else_fn is not None else None

        return simple_case

    def searched_case(row: Tuple[Any, ...]) -> Any:
        for when_fn, then_fn in whens:
            if when_fn(row) is True:
                return then_fn(row)
        return else_fn(row) if else_fn is not None else None

    return searched_case


def _compile_in_list(expr: ast.InList, layout: Dict[int, int]) -> RowFunction:
    operand = _compile(expr.operand, layout)
    all_literals = all(isinstance(item, ast.Literal) for item in expr.items)
    negated = expr.negated
    if all_literals:
        values = [item.value for item in expr.items]  # type: ignore[union-attr]
        has_null = any(value is None for value in values)
        try:
            lookup = frozenset(v for v in values if v is not None)
        except TypeError:  # unhashable? fall back to list scan
            lookup = None  # type: ignore[assignment]

        def in_constant_3vl(row: Tuple[Any, ...]) -> Any:
            value = operand(row)
            if value is None:
                return None
            if lookup is not None:
                found = value in lookup
            else:
                found = any(value == v for v in values if v is not None)
            if found:
                result: Any = True
            elif has_null:
                result = None
            else:
                result = False
            if result is None:
                return None
            return (not result) if negated else result

        return in_constant_3vl

    item_fns = [_compile(item, layout) for item in expr.items]

    def in_dynamic(row: Tuple[Any, ...]) -> Any:
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for fn in item_fns:
            candidate = fn(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if negated else True
        if saw_null:
            return None
        return True if negated else False

    return in_dynamic


def _compile_between(expr: ast.Between, layout: Dict[int, int]) -> RowFunction:
    operand = _compile(expr.operand, layout)
    low = _compile(expr.low, layout)
    high = _compile(expr.high, layout)
    negated = expr.negated

    def between(row: Tuple[Any, ...]) -> Any:
        value = operand(row)
        low_value = low(row)
        high_value = high(row)
        if value is None or low_value is None or high_value is None:
            return None
        result = low_value <= value <= high_value
        return (not result) if negated else result

    return between


def sort_key_function(ascending: bool) -> Callable[[Any], Any]:
    """Key wrapper implementing NULLS LAST (ASC) / NULLS FIRST (DESC).

    Groups NULLs via the first tuple element so the raw values of different
    rows never compare against None.
    """

    def key(value: Any) -> Any:
        return (value is None, 0 if value is None else value)

    return key


def sort_rows(
    rows: List[tuple],
    key_functions: List[Callable[[tuple], Any]],
    directions: List[bool],
) -> List[tuple]:
    """Stable multi-key sort honoring per-key direction and NULL placement.

    Applies single-key stable sorts from the least significant key to the
    most significant — the classic way to get mixed ASC/DESC ordering out of
    a stable sort.
    """
    result = list(rows)
    for key_fn, ascending in reversed(list(zip(key_functions, directions))):
        wrapper = sort_key_function(ascending)
        result.sort(key=lambda row: wrapper(key_fn(row)), reverse=not ascending)
    return result
