"""Rule-based logical rewrites.

Applied after binding and before join ordering/pushdown:

1. **constant folding** — literal-only subexpressions collapse to literals;
2. **predicate simplification** — ``TRUE`` conjuncts vanish, ``FALSE``
   filters become empty relations, double negation cancels;
3. **filter merging & pushdown** — conjuncts sink through projections,
   joins (populating join conditions), unions, aggregates, sorts, and
   distincts until they sit directly on the relation that can absorb them;
4. **projection pruning** — only the columns a parent actually consumes
   survive below it; scans get narrowing projections (the pushdown planner
   later turns those into source-side projection);
5. **limit pushdown** — LIMIT copies into UNION ALL branches (keeping the
   outer limit).

Everything here is semantics-preserving on bags of rows; the differential
tests check each rule against the reference executor (``tests/reference.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..datatypes import DataType
from ..errors import ExecutionError
from ..sql import ast

#: Shorthand for the NULL literal's type in the null-rejection analysis.
_NULL_TYPE = DataType.NULL
from .expressions import evaluate_constant, infer_type
from .logical import (
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
    transform_plan,
)

_MAX_PASSES = 10


def rewrite(plan: LogicalPlan) -> LogicalPlan:
    """Run the full rewrite pipeline to a (bounded) fixpoint."""
    for _ in range(_MAX_PASSES):
        before = plan
        plan = fold_constants(plan)
        plan = simplify_filters(plan)
        plan = push_down_predicates(plan)
        plan = merge_adjacent(plan)
        plan = push_down_limits(plan)
        plan = push_down_distinct(plan)
        if _plan_fingerprint(plan) == _plan_fingerprint(before):
            break
    plan = prune_columns(plan)
    plan = merge_adjacent(plan)
    return plan


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------


def fold_expression(expr: ast.Expr) -> ast.Expr:
    """Collapse literal-only subexpressions bottom-up.

    Expressions that would error at runtime (e.g. a failing CAST) are left
    as-is so the error surfaces during execution, as SQL requires.
    """

    def fold(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, (ast.Literal, ast.BoundRef)):
            return None
        if isinstance(node, (ast.InSubquery, ast.Exists)):
            return None
        if any(
            not isinstance(leaf, (ast.Literal,))
            for leaf in ast.walk_expression(node)
            if not ast.expression_children(leaf)
        ):
            return None
        try:
            value = evaluate_constant(node)
            dtype = infer_type(node)
        except ExecutionError:
            return None
        except Exception:
            return None
        return ast.Literal(value, dtype)

    return ast.transform_expression(expr, fold)


def fold_constants(plan: LogicalPlan) -> LogicalPlan:
    """Apply :func:`fold_expression` to every expression in the plan."""

    def fold_node(node: LogicalPlan) -> Optional[LogicalPlan]:
        if isinstance(node, FilterOp):
            return FilterOp(node.child, fold_expression(node.predicate))
        if isinstance(node, ProjectOp):
            return ProjectOp(
                node.child,
                [fold_expression(e) for e in node.expressions],
                node.columns,
            )
        if isinstance(node, JoinOp) and node.condition is not None:
            return JoinOp(
                node.left,
                node.right,
                node.kind,
                fold_expression(node.condition),
                node.null_aware,
            )
        if isinstance(node, SortOp):
            return SortOp(
                node.child,
                [(fold_expression(e), asc) for e, asc in node.keys],
            )
        return None

    return transform_plan(plan, fold_node)


# ---------------------------------------------------------------------------
# filter simplification
# ---------------------------------------------------------------------------


def simplify_filters(plan: LogicalPlan) -> LogicalPlan:
    """Remove TRUE filters; short-circuit FALSE/NULL filters to empty input."""

    def simplify(node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, FilterOp):
            return None
        conjuncts = [
            c
            for c in ast.conjuncts(node.predicate)
            if not (isinstance(c, ast.Literal) and c.value is True)
        ]
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.Literal) and conjunct.value in (False, None):
                return ValuesOp([], list(node.output_columns))
        if not conjuncts:
            return node.child
        predicate = ast.conjoin(conjuncts)
        assert predicate is not None
        if predicate == node.predicate:
            return None
        return FilterOp(node.child, predicate)

    return transform_plan(plan, simplify)


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def push_down_predicates(plan: LogicalPlan) -> LogicalPlan:
    """Sink filter conjuncts as deep as the plan's semantics allow."""

    def push(node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, FilterOp):
            return None
        replacement = _push_filter(node)
        return replacement if replacement is not node else None

    # Repeated bottom-up passes let conjuncts sink several levels per call.
    for _ in range(_MAX_PASSES):
        new_plan = transform_plan(plan, push)
        if _plan_fingerprint(new_plan) == _plan_fingerprint(plan):
            return new_plan
        plan = new_plan
    return plan


def _push_filter(node: FilterOp) -> LogicalPlan:
    child = node.child
    conjuncts = ast.conjuncts(node.predicate)

    if isinstance(child, FilterOp):
        merged = ast.conjoin(ast.conjuncts(child.predicate) + conjuncts)
        assert merged is not None
        return FilterOp(child.child, merged)

    if isinstance(child, ProjectOp):
        mapping = {
            column.column_id: expression
            for column, expression in zip(child.columns, child.expressions)
        }
        pushed: List[ast.Expr] = []
        kept: List[ast.Expr] = []
        for conjunct in conjuncts:
            rewritten = ast.replace_refs(conjunct, mapping)
            if _is_deterministic(rewritten):
                pushed.append(rewritten)
            else:
                kept.append(conjunct)
        if not pushed:
            return node
        new_child = ProjectOp(
            FilterOp(child.child, _conjoin(pushed)),
            child.expressions,
            child.columns,
        )
        return FilterOp(new_child, _conjoin(kept)) if kept else new_child

    if isinstance(child, JoinOp):
        return _push_into_join(node, child, conjuncts)

    if isinstance(child, UnionOp):
        new_inputs = []
        for branch in child.inputs:
            mapping = {
                column.column_id: branch_column.ref()
                for column, branch_column in zip(child.columns, branch.output_columns)
            }
            branch_predicate = _conjoin(
                [ast.replace_refs(c, mapping) for c in conjuncts]
            )
            new_inputs.append(FilterOp(branch, branch_predicate))
        return UnionOp(new_inputs, child.columns, child.all)

    if isinstance(child, AggregateOp):
        group_mapping = {
            column.column_id: expression
            for column, expression in zip(child.group_columns, child.group_expressions)
        }
        aggregate_ids = {c.column_id for c in child.aggregate_columns}
        pushed, kept = [], []
        for conjunct in conjuncts:
            refs = ast.referenced_columns(conjunct)
            if any(c.column_id in aggregate_ids for c in refs):
                kept.append(conjunct)
            else:
                pushed.append(ast.replace_refs(conjunct, group_mapping))
        if not pushed:
            return node
        new_child = AggregateOp(
            FilterOp(child.child, _conjoin(pushed)),
            child.group_expressions,
            child.group_columns,
            child.aggregates,
            child.aggregate_columns,
        )
        return FilterOp(new_child, _conjoin(kept)) if kept else new_child

    if isinstance(child, (SortOp, DistinctOp)):
        inner = FilterOp(child.children()[0], node.predicate)
        return child.with_children([inner])

    return node


def _push_into_join(node: FilterOp, join: JoinOp, conjuncts: List[ast.Expr]) -> LogicalPlan:
    left_ids = {c.column_id for c in join.left.output_columns}
    right_ids = {c.column_id for c in join.right.output_columns}

    kind = join.kind
    if kind == "LEFT":
        # Outer-join simplification: a WHERE conjunct that can never be TRUE
        # when the null-extended side is all-NULL eliminates exactly the
        # rows the outer join adds, so the join degrades to INNER — which
        # then lets every right-side conjunct sink below it.
        for conjunct in conjuncts:
            refs = {c.column_id for c in ast.referenced_columns(conjunct)}
            if refs & right_ids and _rejects_nulls(conjunct, right_ids):
                kind = "INNER"
                break

    to_left: List[ast.Expr] = []
    to_right: List[ast.Expr] = []
    to_condition: List[ast.Expr] = []
    kept: List[ast.Expr] = []
    for conjunct in conjuncts:
        refs = {c.column_id for c in ast.referenced_columns(conjunct)}
        if refs and refs <= left_ids:
            to_left.append(conjunct)
        elif refs and refs <= right_ids:
            if kind == "LEFT":
                # Filtering the null-extended side above a LEFT join is not
                # the same as filtering below it; keep it above.
                kept.append(conjunct)
            else:
                to_right.append(conjunct)
        elif kind in ("INNER", "CROSS") and refs:
            to_condition.append(conjunct)
        else:
            kept.append(conjunct)
    if kind in ("INNER", "CROSS", "SEMI"):
        # Transitive key predicates: ``a = b`` in the condition and
        # ``a = k`` sunk to a's side let ``b = k`` sink to b's side too. A
        # SEMI join's subquery side only ever receives (probe → subquery).
        equalities = ast.conjuncts(join.condition) if join.condition else []
        if kind != "SEMI":
            equalities = equalities + to_condition
        pairs = _column_equalities(equalities)
        to_right.extend(_transitive_literals(to_left, pairs, right_ids, to_right))
        if kind != "SEMI":
            to_left.extend(
                _transitive_literals(to_right, pairs, left_ids, to_left)
            )
    if not (to_left or to_right or to_condition) and kind == join.kind:
        return node
    left = FilterOp(join.left, _conjoin(to_left)) if to_left else join.left
    right = FilterOp(join.right, _conjoin(to_right)) if to_right else join.right
    condition = join.condition
    if to_condition:
        pieces = ast.conjuncts(condition) if condition is not None else []
        condition = _conjoin(pieces + to_condition)
        if kind == "CROSS":
            kind = "INNER"
    new_join = JoinOp(left, right, kind, condition, join.null_aware)
    return FilterOp(new_join, _conjoin(kept)) if kept else new_join


def _column_equalities(
    conjuncts: Sequence[ast.Expr],
) -> List[Tuple[RelColumn, RelColumn]]:
    """``(a, b)`` for each ``a = b`` conjunct between two bare columns of
    one dtype (across dtypes the comparison coerces, so ``a = k`` need not
    imply ``b = k``)."""
    pairs = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.BoundRef)
            and isinstance(conjunct.right, ast.BoundRef)
            and conjunct.left.column.dtype == conjunct.right.column.dtype
        ):
            pairs.append((conjunct.left.column, conjunct.right.column))
    return pairs


def _transitive_literals(
    sunk: Sequence[ast.Expr],
    pairs: Sequence[Tuple[RelColumn, RelColumn]],
    target_ids: Set[int],
    target: Sequence[ast.Expr],
) -> List[ast.Expr]:
    """``b = k`` for each non-NULL ``a = k`` in ``sunk`` and ``(a, b)`` in
    ``pairs`` with ``b`` on the target side, minus conjuncts ``target``
    already holds. ``k`` is the same Literal object, so its parameter slot
    is shared and a plan-cache rebind rewrites both copies."""
    derived: List[ast.Expr] = []
    for conjunct in sunk:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        ref, literal = conjunct.left, conjunct.right
        if isinstance(ref, ast.Literal):
            ref, literal = literal, ref
        if not (
            isinstance(ref, ast.BoundRef)
            and isinstance(literal, ast.Literal)
            and literal.value is not None
        ):
            continue
        for a, b in pairs:
            other = b if a is ref.column else a if b is ref.column else None
            if other is None or other.column_id not in target_ids:
                continue
            candidate = ast.BinaryOp("=", other.ref(), literal)
            if candidate not in target and candidate not in derived:
                derived.append(candidate)
    return derived


def _rejects_nulls(predicate: ast.Expr, side_ids: Set[int]) -> bool:
    """True if ``predicate`` can never be TRUE when every column of the
    given side is NULL (the outer-join simplification condition).

    Substitutes NULL for the side's references, propagates NULLs through
    strict operators, then checks the residual can never be TRUE.
    """

    def substitute(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.BoundRef) and node.column.column_id in side_ids:
            return ast.Literal(None, _NULL_TYPE)
        return None

    nullified = ast.transform_expression(predicate, substitute)
    return _never_true(_propagate_nulls(nullified))


def _propagate_nulls(expr: ast.Expr) -> ast.Expr:
    """Collapse strict operators with a literal-NULL operand to NULL."""

    def propagate(node: ast.Expr) -> Optional[ast.Expr]:
        null = ast.Literal(None, _NULL_TYPE)
        if isinstance(node, ast.BinaryOp) and node.op not in ("AND", "OR"):
            if _is_null_literal(node.left) or _is_null_literal(node.right):
                return null
        if isinstance(node, ast.UnaryOp) and _is_null_literal(node.operand):
            return null
        if isinstance(node, ast.Between) and (
            _is_null_literal(node.operand)
            or _is_null_literal(node.low)
            or _is_null_literal(node.high)
        ):
            return null
        if isinstance(node, ast.InList) and _is_null_literal(node.operand):
            return null
        if isinstance(node, ast.IsNull) and _is_null_literal(node.operand):
            # IS NULL(NULL) = TRUE; IS NOT NULL(NULL) = FALSE.
            return ast.Literal(not node.negated, DataType.BOOLEAN)
        if isinstance(node, ast.FunctionCall):
            from ..sql.functions import is_scalar_name, lookup_scalar

            if is_scalar_name(node.name):
                function = lookup_scalar(node.name)
                if function.null_propagating and any(
                    _is_null_literal(arg) for arg in node.args
                ):
                    return null
        return None

    return ast.transform_expression(expr, propagate)


def _is_null_literal(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.Literal) and expr.value is None


def _never_true(expr: ast.Expr) -> bool:
    """Conservatively: can this (partially folded) predicate ever be TRUE?"""
    if isinstance(expr, ast.Literal):
        return expr.value is not True
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            return _never_true(expr.left) or _never_true(expr.right)
        if expr.op == "OR":
            return _never_true(expr.left) and _never_true(expr.right)
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        # NOT(NULL) is NULL; NOT(TRUE) is FALSE.
        operand = expr.operand
        if isinstance(operand, ast.Literal):
            return operand.value in (True, None)
    return False


# ---------------------------------------------------------------------------
# merging / cleanup
# ---------------------------------------------------------------------------


def merge_adjacent(plan: LogicalPlan) -> LogicalPlan:
    """Collapse Project(Project), trivial projections, and Limit(Limit)."""

    def merge(node: LogicalPlan) -> Optional[LogicalPlan]:
        if isinstance(node, UnionOp) and node.all:
            # Flatten nested UNION ALLs (binary parses of N-ary unions) so
            # per-branch rules (partial aggregation, limit pushdown) see
            # every branch at once. Positional alignment makes this sound.
            new_inputs: List[LogicalPlan] = []
            changed = False
            for branch in node.inputs:
                if isinstance(branch, UnionOp) and branch.all:
                    new_inputs.extend(branch.inputs)
                    changed = True
                else:
                    new_inputs.append(branch)
            if changed:
                return UnionOp(new_inputs, node.columns, True)
        if isinstance(node, ProjectOp):
            child = node.child
            # An identity projection (forwards the child's own column
            # objects under their own names) is pure noise: drop it.
            if len(node.expressions) == len(child.output_columns) and all(
                isinstance(expr, ast.BoundRef)
                and expr.column is child_column
                and out is child_column
                for expr, child_column, out in zip(
                    node.expressions, child.output_columns, node.columns
                )
            ):
                return child
            if isinstance(child, ProjectOp):
                mapping = {
                    column.column_id: expression
                    for column, expression in zip(child.columns, child.expressions)
                }
                merged = [
                    ast.replace_refs(expression, mapping)
                    for expression in node.expressions
                ]
                return ProjectOp(child.child, merged, node.columns)
        if isinstance(node, LimitOp) and isinstance(node.child, ProjectOp):
            # Projection is row-wise: LIMIT slides below it, where it can
            # merge with other limits or sink into UNION ALL branches.
            project = node.child
            return ProjectOp(
                LimitOp(project.child, node.limit, node.offset),
                project.expressions,
                project.columns,
            )
        if isinstance(node, LimitOp) and isinstance(node.child, LimitOp):
            inner = node.child
            offset = inner.offset + node.offset
            limits = []
            if inner.limit is not None:
                limits.append(max(inner.limit - node.offset, 0))
            if node.limit is not None:
                limits.append(node.limit)
            limit = min(limits) if limits else None
            return LimitOp(inner.child, limit, offset)
        return None

    return transform_plan(plan, merge)


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    """Narrow every subtree to the columns its consumers actually read.

    The root keeps all of its output columns. Scans whose columns are only
    partly consumed get a narrowing projection directly above them (which
    the pushdown planner later folds into the source fragment).
    """
    required = {c.column_id for c in plan.output_columns}
    return _prune(plan, required)


def _prune(plan: LogicalPlan, required: Set[int]) -> LogicalPlan:
    if isinstance(plan, ScanOp):
        kept = [c for c in plan.columns if c.column_id in required]
        if not kept:
            kept = [plan.columns[0]]  # keep one column to preserve cardinality
        if len(kept) == len(plan.columns):
            return plan
        return ProjectOp(plan, [c.ref() for c in kept], kept)
    if isinstance(plan, ProjectOp):
        kept_indices = [
            i for i, c in enumerate(plan.columns) if c.column_id in required
        ]
        if not kept_indices:
            kept_indices = [0]
        expressions = [plan.expressions[i] for i in kept_indices]
        columns = [plan.columns[i] for i in kept_indices]
        child_required = {
            c.column_id for e in expressions for c in ast.referenced_columns(e)
        }
        child = _prune(plan.child, child_required)
        return ProjectOp(child, expressions, columns)
    if isinstance(plan, FilterOp):
        if isinstance(plan.child, ScanOp):
            # Narrow *above* the filter, keeping Filter(Scan) adjacent: a
            # filter-capable but projection-less source (REST, key-value)
            # can then still absorb the predicate.
            filtered = FilterOp(plan.child, plan.predicate)
            kept = [c for c in plan.child.columns if c.column_id in required]
            if not kept:
                kept = [plan.child.columns[0]]
            if len(kept) < len(plan.child.columns):
                return ProjectOp(filtered, [c.ref() for c in kept], kept)
            return filtered
        child_required = set(required)
        child_required.update(
            c.column_id for c in ast.referenced_columns(plan.predicate)
        )
        return FilterOp(_prune(plan.child, child_required), plan.predicate)
    if isinstance(plan, JoinOp):
        condition_refs = (
            {c.column_id for c in ast.referenced_columns(plan.condition)}
            if plan.condition is not None
            else set()
        )
        needed = set(required) | condition_refs
        left_ids = {c.column_id for c in plan.left.output_columns}
        right_ids = {c.column_id for c in plan.right.output_columns}
        left = _prune(plan.left, needed & left_ids)
        right = _prune(plan.right, needed & right_ids)
        return JoinOp(left, right, plan.kind, plan.condition, plan.null_aware)
    if isinstance(plan, AggregateOp):
        kept_aggregates: List = []
        kept_agg_columns: List[RelColumn] = []
        for call, column in zip(plan.aggregates, plan.aggregate_columns):
            if column.column_id in required or not plan.aggregates:
                kept_aggregates.append(call)
                kept_agg_columns.append(column)
        if not kept_aggregates and not plan.group_expressions:
            # A global aggregate must keep at least one call to produce a row.
            kept_aggregates = list(plan.aggregates[:1])
            kept_agg_columns = list(plan.aggregate_columns[:1])
        child_required: Set[int] = set()
        for expression in plan.group_expressions:
            child_required.update(
                c.column_id for c in ast.referenced_columns(expression)
            )
        for call in kept_aggregates:
            if call.argument is not None:
                child_required.update(
                    c.column_id for c in ast.referenced_columns(call.argument)
                )
        if not child_required and plan.child.output_columns:
            child_required = {plan.child.output_columns[0].column_id}
        child = _prune(plan.child, child_required)
        return AggregateOp(
            child,
            plan.group_expressions,
            plan.group_columns,
            kept_aggregates,
            kept_agg_columns,
        )
    if isinstance(plan, SortOp):
        child_required = set(required)
        for expression, _ in plan.keys:
            child_required.update(
                c.column_id for c in ast.referenced_columns(expression)
            )
        return SortOp(_prune(plan.child, child_required), plan.keys)
    if isinstance(plan, WindowOp):
        window_ids = {c.column_id for c in plan.window_columns}
        child_required = {cid for cid in required if cid not in window_ids}
        for spec in plan.specs:
            for expression in (
                [spec.argument] if spec.argument is not None else []
            ) + list(spec.partition_by) + [key for key, _ in spec.order_keys]:
                child_required.update(
                    c.column_id for c in ast.referenced_columns(expression)
                )
        if not child_required and plan.child.output_columns:
            child_required = {plan.child.output_columns[0].column_id}
        return WindowOp(
            _prune(plan.child, child_required), plan.specs, plan.window_columns
        )
    if isinstance(plan, LimitOp):
        return LimitOp(_prune(plan.child, required), plan.limit, plan.offset)
    if isinstance(plan, DistinctOp):
        # DISTINCT semantics depend on the full row: nothing prunes below it.
        full = {c.column_id for c in plan.child.output_columns}
        return DistinctOp(_prune(plan.child, full))
    if isinstance(plan, UnionOp):
        kept_indices = [
            i for i, c in enumerate(plan.columns) if c.column_id in required
        ]
        if not kept_indices:
            kept_indices = [0]
        if len(kept_indices) == len(plan.columns):
            new_inputs = [
                _prune(child, {c.column_id for c in child.output_columns})
                for child in plan.inputs
            ]
            return UnionOp(new_inputs, plan.columns, plan.all)
        new_inputs = []
        for child in plan.inputs:
            child_columns = child.output_columns
            kept_child = [child_columns[i] for i in kept_indices]
            pruned = _prune(child, {c.column_id for c in kept_child})
            new_inputs.append(
                ProjectOp(
                    pruned,
                    [c.ref() for c in kept_child],
                    kept_child,
                )
            )
        return UnionOp(new_inputs, [plan.columns[i] for i in kept_indices], plan.all)
    if isinstance(plan, SetDifferenceOp):
        left = _prune(plan.left, {c.column_id for c in plan.left.output_columns})
        right = _prune(plan.right, {c.column_id for c in plan.right.output_columns})
        return SetDifferenceOp(left, right, plan.operation, plan.columns, plan.all)
    if isinstance(plan, (ValuesOp, RemoteQueryOp)):
        return plan
    children = [
        _prune(child, {c.column_id for c in child.output_columns})
        for child in plan.children()
    ]
    return plan.with_children(children)


# ---------------------------------------------------------------------------
# limit pushdown
# ---------------------------------------------------------------------------


def push_down_limits(plan: LogicalPlan) -> LogicalPlan:
    """Copy LIMIT (and top-N: ORDER BY + LIMIT) into UNION ALL branches.

    The outer limit/sort always stays — branches only pre-reduce. A branch
    that is already limited to within budget is left alone, which is also
    what makes the rewrite idempotent.
    """

    def push(node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, LimitOp) or node.limit is None:
            return None
        child = node.child
        budget = node.limit + node.offset
        if isinstance(child, SortOp):
            return _push_top_n(node, child, budget)
        if isinstance(child, UnionOp) and child.all:
            new_inputs = []
            changed = False
            for branch in child.inputs:
                if isinstance(branch, LimitOp) and (
                    branch.limit is not None and branch.limit <= budget
                ):
                    new_inputs.append(branch)
                    continue
                new_inputs.append(LimitOp(branch, budget, 0))
                changed = True
            if not changed:
                return None
            return LimitOp(
                UnionOp(new_inputs, child.columns, child.all),
                node.limit,
                node.offset,
            )
        return None

    return transform_plan(plan, push)


def push_down_distinct(plan: LogicalPlan) -> LogicalPlan:
    """Duplicate-eliminate UNION ALL branches early.

    ``Distinct(UnionAll(b…))`` keeps its global dedup but each branch
    dedups locally first — cross-branch duplicates survive the branch pass,
    so semantics are unchanged while per-source transfer shrinks.
    """

    def push(node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, DistinctOp):
            return None
        child = node.child
        if not (isinstance(child, UnionOp) and child.all and len(child.inputs) > 1):
            return None
        if all(isinstance(branch, DistinctOp) for branch in child.inputs):
            return None  # already applied
        new_inputs = [
            branch if isinstance(branch, DistinctOp) else DistinctOp(branch)
            for branch in child.inputs
        ]
        return DistinctOp(UnionOp(new_inputs, child.columns, True))

    return transform_plan(plan, push)


def _push_top_n(
    limit: LimitOp, sort: SortOp, budget: int
) -> Optional[LogicalPlan]:
    """Limit(Sort(…Union ALL…)) → per-branch top-N, outer sort+limit kept.

    Handles an intervening deterministic projection by rewriting the sort
    keys through it onto the union's columns.
    """
    target = sort.child
    project: Optional[ProjectOp] = None
    if isinstance(target, ProjectOp) and isinstance(target.child, UnionOp):
        project = target
        union = target.child
        projection_map = {
            column.column_id: expression
            for column, expression in zip(project.columns, project.expressions)
        }
        keys_on_union = [
            (ast.replace_refs(key, projection_map), ascending)
            for key, ascending in sort.keys
        ]
    elif isinstance(target, UnionOp):
        union = target
        keys_on_union = list(sort.keys)
    else:
        return None
    if not union.all or len(union.inputs) < 2:
        return None
    union_ids = {column.column_id for column in union.columns}
    for key, _ in keys_on_union:
        if any(
            column.column_id not in union_ids
            for column in ast.referenced_columns(key)
        ):
            return None

    new_branches: List[LogicalPlan] = []
    changed = False
    for branch in union.inputs:
        if (
            isinstance(branch, LimitOp)
            and branch.limit is not None
            and branch.limit <= budget
        ):
            new_branches.append(branch)
            continue
        branch_map = {
            union_column.column_id: branch_column
            for union_column, branch_column in zip(
                union.columns, branch.output_columns
            )
        }
        branch_keys = [
            (ast.replace_refs(key, branch_map), ascending)
            for key, ascending in keys_on_union
        ]
        new_branches.append(LimitOp(SortOp(branch, branch_keys), budget, 0))
        changed = True
    if not changed:
        return None
    new_union = UnionOp(new_branches, union.columns, True)
    rebuilt: LogicalPlan = new_union
    if project is not None:
        rebuilt = ProjectOp(new_union, project.expressions, project.columns)
    return LimitOp(SortOp(rebuilt, sort.keys), limit.limit, limit.offset)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _conjoin(predicates: Sequence[ast.Expr]) -> ast.Expr:
    joined = ast.conjoin(list(predicates))
    assert joined is not None
    return joined


def _is_deterministic(expr: ast.Expr) -> bool:
    """All our expressions are deterministic today; hook for future RANDOM()."""
    return True


def _plan_fingerprint(plan: LogicalPlan) -> str:
    """Cheap structural fingerprint used to detect rewrite fixpoints."""
    from .logical import explain_plan

    return explain_plan(plan)
