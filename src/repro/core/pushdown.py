"""Capability-driven source pushdown.

Walks the optimized logical plan bottom-up, computing for every subtree the
single source (if any) that could execute it **entirely within its declared
capability envelope**. Each maximal source-executable subtree is then cut
out and replaced by a :class:`~repro.core.logical.RemoteQueryOp` carrying
the subtree as its fragment; whatever remains above the cut is the
mediator's *compensation* plan.

The remote operator re-exposes the fragment's own output columns (identity
is preserved), so nothing upstream needs rewriting — the exchange simply
materializes the columns the plan already references.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..catalog.catalog import Catalog
from ..sql import ast
from .cardinality import Estimator
from .fragments import key_values
from .logical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    JoinOp,
    LimitOp,
    LogicalPlan,
    ProjectOp,
    RemoteQueryOp,
    ScanOp,
    SortOp,
    UnionOp,
)

#: Pushdown levels: "full" uses the whole capability envelope; "scans-only"
#: ships every base table in full (the no-pushdown baseline of experiment T1).
PUSHDOWN_LEVELS = ("full", "scans-only")


class PushdownPlanner:
    """Inserts RemoteQueryOp boundaries into a logical plan."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: Estimator,
        level: str = "full",
    ) -> None:
        if level not in PUSHDOWN_LEVELS:
            raise ValueError(f"unknown pushdown level {level!r}")
        self._catalog = catalog
        self._estimator = estimator
        self._level = level
        #: id(node) -> (node, source); holding the node keeps its id unique.
        self._location_cache: Dict[int, Tuple[LogicalPlan, Optional[str]]] = {}

    # -- public ---------------------------------------------------------------

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        """Replace maximal source-local subtrees with remote fragments."""
        return self._apply(plan)

    def _apply(self, plan: LogicalPlan) -> LogicalPlan:
        location = self.locate(plan)
        if location is not None:
            return self._wrap(plan, location)
        children = plan.children()
        new_children = [self._apply(child) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return plan
        return plan.with_children(new_children)

    def _wrap(self, plan: LogicalPlan, source_name: str) -> RemoteQueryOp:
        estimated = self._estimator.estimate_rows(plan)
        return RemoteQueryOp(
            source_name=source_name,
            fragment=plan,
            columns=list(plan.output_columns),
            estimated_rows=estimated,
        )

    # -- location inference -----------------------------------------------------

    def locate(self, plan: LogicalPlan) -> Optional[str]:
        """The source able to run this whole subtree, or None (memoised
        per node for this planner's lifetime: one statement's planning)."""
        entry = self._location_cache.get(id(plan))
        if entry is not None:
            return entry[1]
        location = self._locate_uncached(plan)
        self._location_cache[id(plan)] = (plan, location)
        return location

    def _locate_uncached(self, plan: LogicalPlan) -> Optional[str]:
        if isinstance(plan, ScanOp):
            return plan.source_name.lower()
        if self._level == "scans-only":
            return None
        if isinstance(plan, FilterOp):
            return self._locate_filter(plan)
        if isinstance(plan, ProjectOp):
            source = self.locate(plan.child)
            if source is None:
                return None
            caps = self._capabilities(source)
            if not caps.projection:
                return None
            if all(
                _expression_supported(expression, caps)
                for expression in plan.expressions
            ):
                return source
            return None
        if isinstance(plan, JoinOp):
            if plan.kind not in ("INNER", "LEFT", "CROSS"):
                return None  # SEMI/ANTI stay at the mediator
            left = self.locate(plan.left)
            right = self.locate(plan.right)
            if left is None or left != right:
                return None
            caps = self._capabilities(left)
            if not caps.joins:
                return None
            if plan.condition is not None and not _expression_supported(
                plan.condition, caps
            ):
                return None
            return left
        if isinstance(plan, AggregateOp):
            source = self.locate(plan.child)
            if source is None:
                return None
            caps = self._capabilities(source)
            if not caps.aggregation:
                return None
            for expression in plan.group_expressions:
                if not _expression_supported(expression, caps):
                    return None
            for call in plan.aggregates:
                if call.argument is not None and not _expression_supported(
                    call.argument, caps
                ):
                    return None
            return source
        if isinstance(plan, SortOp):
            source = self.locate(plan.child)
            if source is None:
                return None
            caps = self._capabilities(source)
            if not caps.sort:
                return None
            if all(_expression_supported(e, caps) for e, _ in plan.keys):
                return source
            return None
        if isinstance(plan, LimitOp):
            source = self.locate(plan.child)
            if source is None:
                return None
            return source if self._capabilities(source).limit else None
        if isinstance(plan, DistinctOp):
            source = self.locate(plan.child)
            if source is None:
                return None
            return source if self._capabilities(source).aggregation else None
        if isinstance(plan, UnionOp):
            locations = {self.locate(child) for child in plan.inputs}
            if len(locations) != 1:
                return None
            (source,) = locations
            if source is None:
                return None
            # UNION pushdown needs a SQL-shaped source; join capability is
            # the envelope's proxy for "speaks multi-relation SQL".
            return source if self._capabilities(source).joins else None
        # ValuesOp, SetDifferenceOp, RemoteQueryOp: mediator-side.
        return None

    def _locate_filter(self, plan: FilterOp) -> Optional[str]:
        source = self.locate(plan.child)
        if source is None:
            return None
        caps = self._capabilities(source)
        if not caps.filters:
            return None
        if caps.key_equality_only is not None:
            return self._locate_key_filter(plan, source, caps)
        if _expression_supported(plan.predicate, caps):
            return source
        return None

    def _locate_key_filter(self, plan: FilterOp, source: str, caps) -> Optional[str]:
        """Key-lookup sources accept only ``key = lit`` / ``key IN (lits)``
        conjuncts over a direct table scan."""
        if not isinstance(plan.child, ScanOp):
            return None
        scan = plan.child
        mapping = scan.effective_mapping
        if mapping is None:
            return None
        key_column = (caps.key_equality_only or {}).get(mapping.remote_table)
        if key_column is None:
            for table_name, column in (caps.key_equality_only or {}).items():
                if table_name.lower() == mapping.remote_table.lower():
                    key_column = column
                    break
        if key_column is None:
            return None
        for conjunct in ast.conjuncts(plan.predicate):
            if key_values(conjunct, key_column, mapping) is None:
                return None
            # The IN-list bound counts the items as written, not distinct values.
            if isinstance(conjunct, ast.InList) and 0 < caps.in_list_max < len(conjunct.items):
                return None
        return source

    def _capabilities(self, source_name: str):
        return self._catalog.source(source_name).capabilities()


# ---------------------------------------------------------------------------
# expression capability checks
# ---------------------------------------------------------------------------


def _expression_supported(expr: ast.Expr, caps) -> bool:
    """Can a source with envelope ``caps`` evaluate ``expr`` natively?"""
    if isinstance(expr, (ast.Literal, ast.BoundRef)):
        return True
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op in ast.ARITHMETIC_OPS or op == "||":
            if not caps.arithmetic:
                return False
        elif op in ("AND", "OR", "NOT"):
            if op not in caps.predicate_ops:
                return False
        elif op == "LIKE":
            if "LIKE" not in caps.predicate_ops:
                return False
        elif op not in caps.predicate_ops:
            return False
        return _expression_supported(expr.left, caps) and _expression_supported(
            expr.right, caps
        )
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT" and "NOT" not in caps.predicate_ops:
            return False
        if expr.op == "-" and not caps.arithmetic:
            return False
        return _expression_supported(expr.operand, caps)
    if isinstance(expr, ast.FunctionCall):
        if expr.name.upper() not in caps.functions:
            return False
        return all(_expression_supported(a, caps) for a in expr.args)
    if isinstance(expr, (ast.Case, ast.Cast)):
        # CASE/CAST ride on the "rich expressions" flag.
        if not caps.arithmetic:
            return False
        return all(
            _expression_supported(child, caps)
            for child in ast.expression_children(expr)
        )
    if isinstance(expr, ast.InList):
        if "IN" not in caps.predicate_ops:
            return False
        if caps.in_list_max and len(expr.items) > caps.in_list_max:
            return False
        return all(
            _expression_supported(child, caps)
            for child in ast.expression_children(expr)
        )
    if isinstance(expr, ast.IsNull):
        if "ISNULL" not in caps.predicate_ops:
            return False
        return _expression_supported(expr.operand, caps)
    if isinstance(expr, ast.Between):
        if "BETWEEN" not in caps.predicate_ops:
            return False
        return all(
            _expression_supported(child, caps)
            for child in ast.expression_children(expr)
        )
    return False  # subqueries, stars: never pushable

