"""Partial (local/global) aggregation: through UNION ALL, and eagerly
below cross-source joins.

The classic distributed-aggregation decomposition: an aggregate over a
horizontally partitioned table —

    Aggregate[G; F(x)]( UnionAll(b1, …, bn) )

— becomes per-branch *partial* aggregates combined by a *final* aggregate:

    Project[ combine ](
        Aggregate[G'; F_final](
            UnionAll( Aggregate[G_b; F_partial](b_i) … )))

so each partition ships one row per group instead of its raw rows, and the
pushdown planner can then delegate every partial aggregate to its source.

Decompositions::

    COUNT(*)  → partial COUNT(*)        , final SUM
    COUNT(x)  → partial COUNT(x)        , final SUM
    SUM(x)    → partial SUM(x)          , final SUM
    MIN(x)    → partial MIN(x)          , final MIN
    MAX(x)    → partial MAX(x)          , final MAX
    AVG(x)    → partial SUM(x)+COUNT(x) , final SUM/SUM (combining project)

DISTINCT aggregates are not decomposable this way; their presence disables
the rewrite for the whole operator. The rewrite preserves output-column
*identity*, so nothing upstream needs adjusting. A COUNT of an aggregate
without GROUP BY is wrapped in ``COALESCE(…, 0)``: over an empty input the
final SUM sees no partial row.

**Eager aggregation** (Yan & Larson, "Eager Aggregation and Lazy
Aggregation", VLDB 1995) applies the same table below a tree of INNER
joins, the federated form of "send a source the largest sub-plan it alone
can answer"::

    Aggregate[G; F(x)]( Join( … R … ) )
      → Project[ combine ](
            Aggregate[G; F_final]( Join( … Aggregate[K; F_partial](R) … ) ))

Every aggregate argument references the one join input R (``COUNT(*)`` may
go to any input: the rule takes the one whose raw transfer is dearest), and
K is every R column that anything above R references — join keys,
residuals, filters and R's GROUP BY columns. A partial row stands for all
the R rows of its group, and a row on the other side of a join matches all
of them or none, so the joins replicate each partial row exactly as often
as they would have replicated the raw rows: no key needs to be unique. R
must be answerable by one source that accepts the partial (aggregation
capability plus every expression), so pushdown ships the grouped rows. The
cost gate is :meth:`CostModel.transfer` on R's link: the rewrite fires only
when the estimated groups (ANALYZE ndv through the
:class:`~repro.core.cardinality.Estimator`) times the partial's width cost
less than the raw fragment.

The planner leaves eager aggregation off on a mediator that keeps a
fragment cache (see :class:`~repro.core.planner.Planner`): a cached raw
range fragment answers every narrower window by subsumption, while a
grouped fragment is exact-key only (``fragment_shape``,
``cache/keys.py``). On the standing ``repeat_churn`` dashboard, rewriting
both join tiles cut bytes per query from 1 878 to 806 but raised messages
from 0.301 to 0.349 and simulated ms from 10.27 to 11.27.

The final aggregate runs as a batch-at-a-time
:class:`~repro.core.physical.HashAggregateExec`: partial rows accumulate
into the group table one batch at a time, so the combining step's cost
stays flat regardless of the executor's ``batch_size``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..catalog.catalog import Catalog
from ..datatypes import DataType
from ..sql import ast
from .cost import CostModel
from .expressions import infer_type
from .logical import (
    AggregateCall,
    AggregateOp,
    FilterOp,
    JoinOp,
    LogicalPlan,
    ProjectOp,
    RelColumn,
    UnionOp,
    transform_plan,
)
from .pushdown import PushdownPlanner


def push_partial_aggregation(plan: LogicalPlan) -> LogicalPlan:
    """Apply the local/global decomposition everywhere it is legal."""

    def visit(node: LogicalPlan) -> Optional[LogicalPlan]:
        if isinstance(node, AggregateOp):
            return _decompose(node)
        return None

    return transform_plan(plan, visit)


def push_eager_aggregation(
    plan: LogicalPlan,
    catalog: Catalog,
    pushdown: PushdownPlanner,
    cost_model: CostModel,
) -> LogicalPlan:
    """Group one join input at its source wherever the cost gate says the
    grouped rows ship cheaper than the raw ones."""

    def visit(node: LogicalPlan) -> Optional[LogicalPlan]:
        if isinstance(node, AggregateOp):
            return _eager(node, catalog, pushdown, cost_model)
        return None

    return transform_plan(plan, visit)


def _decomposable(aggregate: AggregateOp) -> bool:
    return all(
        not call.distinct and call.function in _DECOMPOSABLE
        for call in aggregate.aggregates
    )


def _decompose(aggregate: AggregateOp) -> Optional[LogicalPlan]:
    union = aggregate.child
    if not isinstance(union, UnionOp) or not union.all or len(union.inputs) < 2:
        return None
    if not _decomposable(aggregate):
        return None

    # --- per-branch partial aggregates ------------------------------------
    partial_plans: List[LogicalPlan] = []
    for branch in union.inputs:
        mapping = {
            union_column.column_id: branch_column
            for union_column, branch_column in zip(
                union.columns, branch.output_columns
            )
        }
        group_exprs = [
            ast.replace_refs(expr, mapping) for expr in aggregate.group_expressions
        ]
        group_columns = [
            RelColumn(column.name, column.dtype, origin=column.origin)
            for column in aggregate.group_columns
        ]
        partial_plans.append(
            _partial(branch, group_exprs, group_columns, aggregate.aggregates, mapping)
        )

    union_columns = [column.derive() for column in partial_plans[0].output_columns]
    partial_union = UnionOp(partial_plans, union_columns, all=True)
    group_count = len(aggregate.group_expressions)
    return _finalize(
        aggregate,
        partial_union,
        [column.ref() for column in union_columns[:group_count]],
        union_columns[group_count:],
    )


def _eager(
    aggregate: AggregateOp,
    catalog: Catalog,
    pushdown: PushdownPlanner,
    cost_model: CostModel,
) -> Optional[LogicalPlan]:
    if not aggregate.aggregates or not _decomposable(aggregate):
        return None
    leaves, expressions, inner = _join_tree(aggregate.child, pushdown)
    if len(leaves) < 2:
        return None
    argument_ids = {
        column.column_id
        for call in aggregate.aggregates
        if call.argument is not None
        for column in ast.referenced_columns(call.argument)
    }
    # Columns the partial must keep: everything above R refers to them.
    referenced = {
        column.column_id
        for expression in expressions + list(aggregate.group_expressions)
        for column in ast.referenced_columns(expression)
    }
    estimator = cost_model.estimator

    #: (raw ms, grouped ms, R, its partial, R column id -> grouped column)
    candidates: List[
        Tuple[float, float, LogicalPlan, AggregateOp, Dict[int, RelColumn]]
    ] = []
    for leaf in leaves:
        if not argument_ids <= {column.column_id for column in leaf.output_columns}:
            continue
        keys = [c for c in leaf.output_columns if c.column_id in referenced]
        if not keys:
            continue  # an ungrouped partial would emit a row for an empty R
        mapping = {column.column_id: column.derive() for column in keys}
        partial = _partial(
            leaf,
            [column.ref() for column in keys],
            list(mapping.values()),
            aggregate.aggregates,
            {},
        )
        source = pushdown.locate(partial)
        if source is None:
            continue  # no one source both holds R and accepts the partial
        page_rows = catalog.source(source).capabilities().page_rows
        raw = cost_model.transfer(
            source, estimator.estimate_rows(leaf), leaf.output_columns, page_rows
        )
        grouped = cost_model.transfer(
            source, estimator.estimate_rows(partial), partial.output_columns, page_rows
        )
        candidates.append((raw.total_ms, grouped.total_ms, leaf, partial, mapping))
    if not candidates:
        return None
    # The input with the dearest raw transfer: the only candidate unless
    # no aggregate argument names a column (COUNT(*)).
    raw_ms, grouped_ms, leaf, partial, mapping = max(
        candidates, key=lambda candidate: candidate[0]
    )
    if grouped_ms >= raw_ms:
        return None
    child = _swap_leaf(aggregate.child, leaf, partial, mapping, inner)
    return _finalize(
        aggregate,
        child,
        [ast.replace_refs(expr, mapping) for expr in aggregate.group_expressions],
        partial.aggregate_columns,
    )


# ---------------------------------------------------------------------------
# the INNER join tree below an aggregate
# ---------------------------------------------------------------------------


def _join_tree(
    root: LogicalPlan, pushdown: PushdownPlanner
) -> Tuple[List[LogicalPlan], List[ast.Expr], Set[int]]:
    """The leaves of the INNER join tree at ``root``, the join conditions
    and filters inside it, and the ids of its inner nodes, in one walk.

    An inner node is an INNER join or a filter the mediator must run;
    anything else, and any subtree one source answers whole, is a leaf.
    """
    leaves: List[LogicalPlan] = []
    expressions: List[ast.Expr] = []
    inner: Set[int] = set()

    def walk(node: LogicalPlan) -> None:
        if isinstance(node, FilterOp) and pushdown.locate(node) is None:
            expressions.append(node.predicate)
        elif (
            isinstance(node, JoinOp)
            and node.kind == "INNER"
            and pushdown.locate(node) is None
        ):
            if node.condition is not None:
                expressions.append(node.condition)
        else:
            leaves.append(node)
            return
        inner.add(id(node))
        for child in node.children():
            walk(child)

    walk(root)
    return leaves, expressions, inner


def _swap_leaf(
    node: LogicalPlan,
    leaf: LogicalPlan,
    partial: AggregateOp,
    mapping: Dict[int, RelColumn],
    inner: Set[int],
) -> LogicalPlan:
    """The join tree with ``leaf`` replaced by ``partial`` and every
    reference to a grouped column redirected to the partial's output."""
    if node is leaf:
        return partial
    if id(node) not in inner:
        return node
    children = [
        _swap_leaf(child, leaf, partial, mapping, inner) for child in node.children()
    ]
    if isinstance(node, FilterOp):
        return FilterOp(children[0], ast.replace_refs(node.predicate, mapping))
    assert isinstance(node, JoinOp)
    condition = node.condition
    if condition is not None:
        condition = ast.replace_refs(condition, mapping)
    return JoinOp(children[0], children[1], node.kind, condition, node.null_aware)


# ---------------------------------------------------------------------------
# the decomposition table
# ---------------------------------------------------------------------------


def _partial(
    child: LogicalPlan,
    group_expressions: List[ast.Expr],
    group_columns: List[RelColumn],
    aggregates: Sequence[AggregateCall],
    mapping: Dict[int, RelColumn],
) -> AggregateOp:
    """The partial aggregate of ``aggregates`` over ``child``, arguments
    moved onto ``child``'s columns through ``mapping``; one column per
    distinct partial call (``SUM(x)`` and ``AVG(x)`` share their SUM)."""
    calls: List[AggregateCall] = []
    columns: List[RelColumn] = []
    for partial_fn, argument in _slots(aggregates)[0]:
        if argument is not None:
            argument = ast.replace_refs(argument, mapping)
        calls.append(AggregateCall(partial_fn, argument, False))
        if partial_fn == "COUNT" or argument is None:
            dtype = DataType.INTEGER
        else:
            dtype = infer_type(argument)
        columns.append(RelColumn(f"p{partial_fn.lower()}", dtype))
    return AggregateOp(child, group_expressions, group_columns, calls, columns)


def _finalize(
    aggregate: AggregateOp,
    child: LogicalPlan,
    group_expressions: List[ast.Expr],
    partial_columns: Sequence[RelColumn],
) -> ProjectOp:
    """The final aggregate of the partial columns under ``aggregate``'s
    groups, and the projection that restores its output identity."""
    final_group_columns = [
        RelColumn(column.name, column.dtype, origin=column.origin)
        for column in aggregate.group_columns
    ]
    slots, feeds = _slots(aggregate.aggregates)
    final_calls: List[AggregateCall] = []
    final_columns: List[RelColumn] = []
    for (partial_fn, _argument), partial_column in zip(slots, partial_columns):
        final_fn = _FINAL_FUNCTION[partial_fn]
        final_calls.append(AggregateCall(final_fn, partial_column.ref(), False))
        final_columns.append(RelColumn(f"f{final_fn.lower()}", partial_column.dtype))
    final_aggregate = AggregateOp(
        child,
        group_expressions,
        final_group_columns,
        final_calls,
        final_columns,
    )

    # --- combining projection (restores original output identity) ---------
    expressions: List[ast.Expr] = [c.ref() for c in final_group_columns]
    for call, indexes in zip(aggregate.aggregates, feeds):
        if call.function == "AVG":
            sum_ref = final_columns[indexes[0]].ref()
            count_ref = final_columns[indexes[1]].ref()
            expressions.append(ast.BinaryOp("/", sum_ref, count_ref))
        elif call.function == "COUNT" and not group_expressions:
            expressions.append(
                ast.FunctionCall(
                    "COALESCE",
                    (final_columns[indexes[0]].ref(), ast.Literal(0, DataType.INTEGER)),
                )
            )
        else:
            expressions.append(final_columns[indexes[0]].ref())
    return ProjectOp(final_aggregate, expressions, list(aggregate.output_columns))


def _slots(
    aggregates: Sequence[AggregateCall],
) -> Tuple[List[Tuple[str, Optional[ast.Expr]]], List[List[int]]]:
    """The distinct partial calls ``(function, argument)`` of
    ``aggregates``, and for each original aggregate the slots feeding it.

    Two calls share a slot only if their arguments also carry the same
    parameter slots: ``Literal`` equality ignores ``param_slot``, and a
    cached plan rebound to new literals must not let ``AVG(x + 2)`` read
    the SUM of ``SUM(x + 1)``."""
    slots: List[Tuple[str, Optional[ast.Expr]]] = []
    keys: List[Tuple[str, Optional[ast.Expr], Tuple[Optional[int], ...]]] = []
    feeds: List[List[int]] = []
    for call in aggregates:
        indexes: List[int] = []
        for partial_fn in _partial_functions(call.function):
            key = (partial_fn, call.argument, _param_slots(call.argument))
            if key not in keys:
                keys.append(key)
                slots.append((partial_fn, call.argument))
            indexes.append(keys.index(key))
        feeds.append(indexes)
    return slots, feeds


def _param_slots(argument: Optional[ast.Expr]) -> Tuple[Optional[int], ...]:
    if argument is None:
        return ()
    return tuple(
        sub.param_slot
        for sub in ast.walk_expression(argument)
        if isinstance(sub, ast.Literal)
    )


_DECOMPOSABLE = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def _partial_functions(function: str) -> Tuple[str, ...]:
    """Original aggregate → partial aggregate(s) computed per input."""
    if function == "AVG":
        return ("SUM", "COUNT")
    return (function,)


_FINAL_FUNCTION = {
    "COUNT": "SUM",
    "SUM": "SUM",
    "MIN": "MIN",
    "MAX": "MAX",
}
