"""Prepared statements and the plan-shape cache.

The serving layer (and any repeat-heavy client) pays the full
parse → analyze → rewrite → join-order → pushdown → semijoin pipeline for
every query even when only the literals change between calls. This module
makes that cost once-per-*shape*:

* :func:`parameterize` normalizes a parsed statement — every literal is
  tagged with a parameter slot and the statement is serialized with the
  literal *values* masked out, yielding a shape key under which all
  executions of the same query template collide.
* :class:`PreparedPlan` wraps one planned shape. Binding it to a new
  literal vector clones the distributed plan with the tagged literals
  substituted (untouched subtrees are shared, column identity is
  preserved) and rebuilds only the physical tree — the optimizer phases
  are skipped entirely.
* :class:`PlanCache` is the thread-safe LRU of prepared plans keyed by
  (shape, planner options), with epoch-based invalidation: catalog
  changes bump the epoch and stale entries die lazily on lookup.

Correctness over cleverness: a literal that the optimizer *consumed*
(constant folding, IS NULL simplification) does not survive into the
distributed plan, so its slot cannot be rebound. Binding detects this —
if such a slot's value differs from the value the shape was planned with,
``bind`` refuses and the caller replans from scratch. A reused plan is
therefore always executable verbatim; at worst it is the "generic plan"
for the shape (planned under the first-seen literals), never a wrong one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sql import ast
from .logical import (
    AggregateCall,
    AggregateOp,
    BindSpec,
    FilterOp,
    JoinOp,
    LogicalPlan,
    ProjectOp,
    RemoteQueryOp,
    SortOp,
    WindowOp,
    WindowSpec,
)

# ---------------------------------------------------------------------------
# statement parameterization
# ---------------------------------------------------------------------------


@dataclass
class ParameterizedStatement:
    """A parsed statement with its literals lifted out as parameters.

    ``statement`` is the original tree with every literal tagged
    (``Literal.param_slot``); ``values``/``dtypes`` are the literal vector
    in slot order; ``shape_key`` is the value-independent serialization
    that identifies the query template.
    """

    statement: ast.Statement
    shape_key: str
    values: List[Any]
    dtypes: List[Any]

    @property
    def parameter_count(self) -> int:
        return len(self.values)


def parameterize(statement: ast.Statement) -> ParameterizedStatement:
    """Tag every literal with a parameter slot and derive the shape key.

    Slot numbering follows one fixed traversal, so two parses of the same
    template always assign identical slots; the shape key embeds slot and
    type but never the value.
    """
    values: List[Any] = []
    dtypes: List[Any] = []

    def tag(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Literal) and expr.param_slot is None:
            slot = len(values)
            values.append(expr.value)
            dtypes.append(expr.dtype)
            return ast.Literal(expr.value, expr.dtype, param_slot=slot)
        return None

    tagged = transform_statement(statement, tag)

    def mask(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Literal):
            return ast.Literal(None, expr.dtype, param_slot=expr.param_slot)
        return None

    masked = transform_statement(tagged, mask)
    return ParameterizedStatement(tagged, repr(masked), values, dtypes)


def bind_statement_values(
    statement: ast.Statement, values: Sequence[Any]
) -> ast.Statement:
    """A copy of a tagged statement with new values at every slot."""

    def substitute(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Literal) and expr.param_slot is not None:
            return ast.Literal(
                values[expr.param_slot], expr.dtype, param_slot=expr.param_slot
            )
        return None

    return transform_statement(statement, substitute)


def transform_statement(
    statement: ast.Statement, fn: Callable[[ast.Expr], Optional[ast.Expr]]
) -> ast.Statement:
    """Rebuild a statement applying ``fn`` to every expression node.

    Unlike :func:`ast.transform_expression` this descends into subqueries
    (IN/EXISTS and derived tables), so a literal anywhere in the statement
    is visited exactly once, in a deterministic order.
    """
    if isinstance(statement, ast.SetOperation):
        return ast.SetOperation(
            op=statement.op,
            left=transform_statement(statement.left, fn),
            right=transform_statement(statement.right, fn),
            all=statement.all,
            order_by=[
                ast.OrderItem(_tx(item.expr, fn), item.ascending)
                for item in statement.order_by
            ],
            limit=statement.limit,
            offset=statement.offset,
        )
    select = statement
    return ast.Select(
        items=[
            ast.SelectItem(_tx(item.expr, fn), item.alias)
            for item in select.items
        ],
        from_item=(
            _transform_from(select.from_item, fn)
            if select.from_item is not None
            else None
        ),
        where=_tx(select.where, fn) if select.where is not None else None,
        group_by=[_tx(expr, fn) for expr in select.group_by],
        having=_tx(select.having, fn) if select.having is not None else None,
        order_by=[
            ast.OrderItem(_tx(item.expr, fn), item.ascending)
            for item in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _transform_from(item: ast.FromItem, fn) -> ast.FromItem:
    if isinstance(item, ast.TableRef):
        return item
    if isinstance(item, ast.SubqueryRef):
        return ast.SubqueryRef(transform_statement(item.select, fn), item.alias)
    join = item
    return ast.Join(
        left=_transform_from(join.left, fn),
        right=_transform_from(join.right, fn),
        kind=join.kind,
        condition=(
            _tx(join.condition, fn) if join.condition is not None else None
        ),
    )


def _tx(expr: ast.Expr, fn) -> ast.Expr:
    """Transform one expression, descending into subquery statements."""

    def wrapper(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.InSubquery):
            return ast.InSubquery(
                node.operand,
                transform_statement(node.subquery, fn),
                node.negated,
            )
        if isinstance(node, ast.Exists):
            return ast.Exists(
                transform_statement(node.subquery, fn), node.negated
            )
        return fn(node)

    return ast.transform_expression(expr, wrapper)


# ---------------------------------------------------------------------------
# plan-side rebinding
# ---------------------------------------------------------------------------


def walk_plan_with_fragments(plan: LogicalPlan):
    """Pre-order walk that, unlike ``LogicalPlan.walk``, descends into
    remote-fragment subtrees (they are deliberately not ``children()``)."""
    yield plan
    if isinstance(plan, RemoteQueryOp):
        yield from walk_plan_with_fragments(plan.fragment)
    for child in plan.children():
        yield from walk_plan_with_fragments(child)


def _node_expressions(node: LogicalPlan):
    """Every expression tree hanging off one plan node."""
    if isinstance(node, FilterOp):
        yield node.predicate
    elif isinstance(node, ProjectOp):
        yield from node.expressions
    elif isinstance(node, JoinOp):
        if node.condition is not None:
            yield node.condition
    elif isinstance(node, AggregateOp):
        yield from node.group_expressions
        for call in node.aggregates:
            if call.argument is not None:
                yield call.argument
    elif isinstance(node, WindowOp):
        for spec in node.specs:
            if spec.argument is not None:
                yield spec.argument
            yield from spec.partition_by
            for key, _ in spec.order_keys:
                yield key
    elif isinstance(node, SortOp):
        for key, _ in node.keys:
            yield key
    if isinstance(node, RemoteQueryOp) and node.bind is not None:
        yield node.bind.probe_key


def collect_param_slots(plan: LogicalPlan) -> Set[int]:
    """Parameter slots whose tagged literal survived into the plan."""
    slots: Set[int] = set()
    for node in walk_plan_with_fragments(plan):
        for expr in _node_expressions(node):
            for sub in ast.walk_expression(expr):
                if isinstance(sub, ast.Literal) and sub.param_slot is not None:
                    slots.add(sub.param_slot)
    return slots


def rebind_plan(plan: LogicalPlan, values: Sequence[Any]) -> LogicalPlan:
    """Clone a tagged plan with new literal values at every surviving slot.

    Untouched subtrees (and all column/schema objects) are shared with the
    original, so column identity — which physical planning relies on —
    is preserved across the copy, and concurrent executions of different
    bindings never observe each other.
    """

    def substitute(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.Literal) and node.param_slot is not None:
            new_value = values[node.param_slot]
            if new_value == node.value and type(new_value) is type(node.value):
                return None
            return ast.Literal(new_value, node.dtype, param_slot=node.param_slot)
        return None

    def rx(expr: ast.Expr) -> ast.Expr:
        return ast.transform_expression(expr, substitute)

    return _rebind_node(plan, rx)


def _rebind_node(node: LogicalPlan, rx) -> LogicalPlan:
    children = node.children()
    new_children = [_rebind_node(child, rx) for child in children]
    if any(new is not old for new, old in zip(new_children, children)):
        node = node.with_children(new_children)

    if isinstance(node, FilterOp):
        predicate = rx(node.predicate)
        if predicate is not node.predicate:
            return FilterOp(node.child, predicate)
        return node
    if isinstance(node, ProjectOp):
        expressions = [rx(expr) for expr in node.expressions]
        if any(new is not old for new, old in zip(expressions, node.expressions)):
            return ProjectOp(node.child, expressions, node.columns)
        return node
    if isinstance(node, JoinOp):
        if node.condition is None:
            return node
        condition = rx(node.condition)
        if condition is not node.condition:
            return JoinOp(
                node.left, node.right, node.kind, condition, node.null_aware
            )
        return node
    if isinstance(node, AggregateOp):
        groups = [rx(expr) for expr in node.group_expressions]
        calls = [
            AggregateCall(
                call.function,
                rx(call.argument) if call.argument is not None else None,
                call.distinct,
            )
            for call in node.aggregates
        ]
        changed = any(
            new is not old for new, old in zip(groups, node.group_expressions)
        ) or any(
            new.argument is not old.argument
            for new, old in zip(calls, node.aggregates)
        )
        if changed:
            return AggregateOp(
                node.child, groups, node.group_columns, calls,
                node.aggregate_columns,
            )
        return node
    if isinstance(node, WindowOp):
        specs = [
            WindowSpec(
                spec.function,
                rx(spec.argument) if spec.argument is not None else None,
                tuple(rx(expr) for expr in spec.partition_by),
                tuple((rx(key), asc) for key, asc in spec.order_keys),
            )
            for spec in node.specs
        ]
        if any(new != old for new, old in zip(specs, node.specs)):
            return WindowOp(node.child, specs, node.window_columns)
        return node
    if isinstance(node, SortOp):
        keys = [(rx(key), asc) for key, asc in node.keys]
        if any(new[0] is not old[0] for new, old in zip(keys, node.keys)):
            return SortOp(node.child, keys)
        return node
    if isinstance(node, RemoteQueryOp):
        fragment = _rebind_node(node.fragment, rx)
        bind = node.bind
        if bind is not None:
            probe = rx(bind.probe_key)
            if probe is not bind.probe_key:
                bind = BindSpec(probe, bind.fragment_key, bind.batch_size)
        if fragment is not node.fragment or bind is not node.bind:
            return RemoteQueryOp(
                node.source_name, fragment, node.columns,
                node.estimated_rows, bind,
            )
        return node
    return node


# ---------------------------------------------------------------------------
# prepared plans
# ---------------------------------------------------------------------------


class PreparedPlan:
    """One cached query shape, bindable to fresh literal vectors.

    The plan was produced for ``first_values``; ``bound_slots`` are the
    parameter slots that survived optimization and can be rebound.
    Binding is re-entrant: it never mutates the cached plan, so any number
    of executor threads may bind (and execute) the same shape concurrently.
    """

    def __init__(
        self,
        shape_key: str,
        options: Any,
        planned: Any,
        values: Sequence[Any],
        dtypes: Sequence[Any],
        epoch: int,
        statement: Optional[ast.Statement] = None,
    ) -> None:
        self.shape_key = shape_key
        self.options = options
        self.planned = planned
        self.first_values = list(values)
        self.dtypes = list(dtypes)
        self.bound_slots = collect_param_slots(planned.distributed)
        self.epoch = epoch
        self.statement = statement
        self.executions = 0

    @property
    def parameter_count(self) -> int:
        return len(self.first_values)

    def bindable(self, values: Sequence[Any]) -> bool:
        """True when the cached plan is valid verbatim for ``values``.

        Slots the optimizer consumed (their literal no longer appears in
        the distributed plan) cannot be rebound; a changed value there
        requires a fresh plan.
        """
        if len(values) != len(self.first_values):
            return False
        for slot, (new, old) in enumerate(zip(values, self.first_values)):
            if slot in self.bound_slots:
                continue
            if not (new == old and type(new) is type(old)):
                return False
        return True

    def bind(
        self,
        sql: str,
        values: Sequence[Any],
        catalog: Any,
    ) -> Optional[Any]:
        """A fresh ``PlannedQuery`` for ``values``, or None if not bindable."""
        from .physical import PhysicalPlanner
        from .planner import PlannedQuery

        if not self.bindable(values):
            return None
        started = time.perf_counter()
        if list(values) == self.first_values:
            distributed = self.planned.distributed
        else:
            distributed = rebind_plan(self.planned.distributed, values)
        physical = PhysicalPlanner(catalog).build(distributed)
        planning_ms = (time.perf_counter() - started) * 1000.0
        self.executions += 1
        return PlannedQuery(
            sql=sql,
            bound=self.planned.bound,
            optimized=self.planned.optimized,
            distributed=distributed,
            physical=physical,
            output_names=list(self.planned.output_names),
            planning_ms=planning_ms,
            ordering_stats=self.planned.ordering_stats,
            semijoin_decisions=list(self.planned.semijoin_decisions),
            replica_decisions=list(self.planned.replica_decisions),
            estimates=self.planned.estimates,
        )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Thread-safe LRU of :class:`PreparedPlan` with epoch invalidation.

    ``capacity`` 0 disables the cache (every operation is a cheap no-op).
    Invalidation bumps an epoch instead of walking entries; a stale entry
    is discarded the next time it is looked up. Statistics distinguish
    *hits* (plan reused), *misses* (shape never seen / evicted / stale)
    and *fallbacks* (shape cached but a plan-sensitive literal changed, so
    the query was replanned — the entry is refreshed with the new plan).
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"plan cache capacity must be >= 0 (got {capacity})")
        self.capacity = capacity
        self._entries: "Dict[Tuple[str, Any], PreparedPlan]" = {}
        self._order: List[Tuple[str, Any]] = []
        self._lock = threading.Lock()
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def lookup(self, shape_key: str, options: Any) -> Optional[PreparedPlan]:
        """The live entry for a shape, refreshing its LRU position."""
        if not self.enabled:
            return None
        key = (shape_key, options)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.epoch != self._epoch:
                del self._entries[key]
                self._order.remove(key)
                return None
            self._order.remove(key)
            self._order.append(key)
            return entry

    def store(self, entry: PreparedPlan) -> None:
        if not self.enabled:
            return
        key = (entry.shape_key, entry.options)
        with self._lock:
            if key in self._entries:
                self._order.remove(key)
            self._entries[key] = entry
            self._order.append(key)
            while len(self._order) > self.capacity:
                victim = self._order.pop(0)
                del self._entries[victim]
                self.evictions += 1

    def invalidate(self) -> int:
        """Epoch hook: every cached plan becomes stale immediately.

        Called by the mediator whenever the catalog changes underneath
        (table/view/replica registration, ANALYZE, materialized-view
        refresh).
        Returns the new epoch so callers can stamp dependent state.
        """
        with self._lock:
            self._epoch += 1
            self.invalidations += 1
            return self._epoch

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """A consistent snapshot of cache effectiveness counters."""
        with self._lock:
            lookups = self.hits + self.misses + self.fallbacks
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "epoch": self._epoch,
                "hits": self.hits,
                "misses": self.misses,
                "fallbacks": self.fallbacks,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }
