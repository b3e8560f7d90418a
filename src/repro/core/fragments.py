"""Fragments: the unit of work shipped to a component system.

A :class:`Fragment` is a self-contained logical plan whose scan leaves all
belong to one source. The pushdown planner builds fragments within the
source's declared capability envelope; wrappers either compile them to
native SQL (:class:`~repro.sources.sqlite.SQLiteSource`) or interpret them
with :func:`interpret_plan`.

:func:`interpret_plan` is also the library's **reference executor**: a
direct, unoptimized evaluation of any logical plan given base-table rows.
The test suite runs it against the optimized federated engine on the same
queries (differential testing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..sql import ast
from .aggregates import make_accumulator, sort_rows
from .expressions import build_layout, compile_expression, compile_predicate
from .logical import (
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

#: Provides base rows for a scan leaf: fn(scan_op) -> iterator of tuples.
ScanProvider = Callable[[ScanOp], Iterator[Tuple[Any, ...]]]


@dataclass
class Fragment:
    """One source-executable subplan.

    ``plan.output_columns`` defines the row layout the wrapper must produce;
    ``source_name`` is the owning component system. Semijoin bind lists
    arrive as ordinary IN-filters injected into a copy of the plan at run
    time (see :class:`~repro.core.physical.BindJoinExec`).
    """

    source_name: str
    plan: LogicalPlan

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.plan.output_columns

    def scans(self) -> List[ScanOp]:
        """All scan leaves of the fragment."""
        return [node for node in self.plan.walk() if isinstance(node, ScanOp)]


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
            from collections import Counter

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


def equi_join_keys(
    condition: Optional[ast.Expr],
    left_columns: Sequence[RelColumn],
    right_columns: Sequence[RelColumn],
) -> Optional[Tuple[List[ast.Expr], List[ast.Expr], List[ast.Expr]]]:
    """Split a join condition into equi-key pairs plus a residual.

    Returns ``(left_keys, right_keys, residual_conjuncts)`` when at least one
    conjunct is ``left_expr = right_expr`` with each side referencing only
    one input; otherwise ``None``.
    """
    if condition is None:
        return None
    left_ids = {c.column_id for c in left_columns}
    right_ids = {c.column_id for c in right_columns}
    left_keys: List[ast.Expr] = []
    right_keys: List[ast.Expr] = []
    residual: List[ast.Expr] = []
    for conjunct in ast.conjuncts(condition):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            lhs_cols = {c.column_id for c in ast.referenced_columns(conjunct.left)}
            rhs_cols = {c.column_id for c in ast.referenced_columns(conjunct.right)}
            if lhs_cols and rhs_cols:
                if lhs_cols <= left_ids and rhs_cols <= right_ids:
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    continue
                if lhs_cols <= right_ids and rhs_cols <= left_ids:
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    continue
        residual.append(conjunct)
    if not left_keys:
        return None
    return left_keys, right_keys, residual


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
    """Evaluate window specs over materialized rows (shared by the physical
    operator and the reference interpreter). Output preserves input order,
    with one appended column per spec."""
    from .aggregates import sort_key_function

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
