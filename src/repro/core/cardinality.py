"""Cardinality and selectivity estimation.

Follows the System R lineage: per-conjunct selectivities multiplied under an
independence assumption, equi-join cardinality via distinct-value counts,
and — when ANALYZE has produced them — equi-depth histograms for skew-aware
point/range selectivity (the subject of experiment T4's ablation).

Column statistics are found through :attr:`RelColumn.origin` lineage, which
survives filters, projections, and joins, so estimates deep in a plan still
ground in base-table statistics.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..catalog.catalog import Catalog
from ..catalog.statistics import ColumnStatistics
from ..datatypes import wire_width
from ..sql import ast
from .fragments import equi_join_keys
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
)

#: Row count assumed for tables never ANALYZEd and lacking source metadata.
DEFAULT_TABLE_ROWS = 1000.0
#: Selectivity for predicates the estimator cannot decompose.
DEFAULT_SELECTIVITY = 0.25
#: Selectivity for range comparisons without statistics (System R's 1/3).
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: Selectivity for equality without statistics.
DEFAULT_EQ_SELECTIVITY = 0.01
#: Selectivity for LIKE patterns.
DEFAULT_LIKE_SELECTIVITY = 0.1


class Estimator:
    """Statistics-driven cardinality estimation over logical plans."""

    def __init__(self, catalog: Catalog, use_histograms: bool = True) -> None:
        self._catalog = catalog
        self.use_histograms = use_histograms

    # -- public API ---------------------------------------------------------

    def estimate_rows(self, plan: LogicalPlan) -> float:
        """Estimated output row count (>= 0; never NaN)."""
        rows = self._rows(plan)
        return max(rows, 0.0)

    def estimate_width(self, columns: Sequence[RelColumn]) -> float:
        """Estimated bytes per row on the wire for these columns."""
        total = 0.0
        for column in columns:
            stats = self._column_stats(column)
            if stats is not None:
                total += stats.avg_width
            else:
                total += wire_width(column.dtype)
        return max(total, 1.0)

    def selectivity(self, predicate: ast.Expr, input_rows: float) -> float:
        """Estimated fraction of rows satisfying ``predicate`` (in [0, 1])."""
        return _clamp(self._selectivity(predicate, input_rows))

    def column_ndv(self, column: RelColumn, rows: float) -> float:
        """Distinct-count estimate for a column within ``rows`` input rows."""
        stats = self._column_stats(column)
        if stats is not None:
            return max(min(stats.distinct_count, rows), 1.0)
        return max(min(rows / 10.0, rows), 1.0)

    # -- row counts ---------------------------------------------------------

    def _rows(self, plan: LogicalPlan) -> float:
        if isinstance(plan, ScanOp):
            return self._scan_rows(plan)
        if isinstance(plan, ValuesOp):
            return float(len(plan.rows))
        if isinstance(plan, RemoteQueryOp):
            return plan.estimated_rows or self._rows(plan.fragment)
        if isinstance(plan, FilterOp):
            child = self._rows(plan.child)
            return child * self.selectivity(plan.predicate, child)
        if isinstance(plan, ProjectOp):
            return self._rows(plan.child)
        if isinstance(plan, JoinOp):
            return self._join_rows(plan)
        if isinstance(plan, AggregateOp):
            return self._aggregate_rows(plan)
        if isinstance(plan, SortOp):
            return self._rows(plan.child)
        if isinstance(plan, WindowOp):
            return self._rows(plan.child)
        if isinstance(plan, LimitOp):
            child = self._rows(plan.child)
            available = max(child - plan.offset, 0.0)
            if plan.limit is None:
                return available
            return min(available, float(plan.limit))
        if isinstance(plan, DistinctOp):
            child = self._rows(plan.child)
            ndv = self._group_ndv(
                [c.ref() for c in plan.child.output_columns], child
            )
            return min(child, ndv)
        if isinstance(plan, UnionOp):
            total = sum(self._rows(child) for child in plan.inputs)
            return total
        if isinstance(plan, SetDifferenceOp):
            left = self._rows(plan.left)
            right = self._rows(plan.right)
            if plan.operation == "INTERSECT":
                return min(left, right) * 0.5
            return max(left - right * 0.5, left * 0.1)
        return DEFAULT_TABLE_ROWS

    def _scan_rows(self, scan: ScanOp) -> float:
        stats = self._catalog.statistics(scan.table.name)
        if stats is not None:
            return max(stats.row_count, 0.0)
        # Fall back on source metadata if the wrapper exposes it cheaply.
        mapping = scan.effective_mapping
        if mapping is not None and self._catalog.has_source(mapping.source):
            adapter = self._catalog.source(mapping.source)
            try:
                count = adapter.row_count(mapping.remote_table)
            except Exception:
                count = None
            if count is not None:
                return float(count)
        return DEFAULT_TABLE_ROWS

    def _join_rows(self, plan: JoinOp) -> float:
        left_rows = self._rows(plan.left)
        right_rows = self._rows(plan.right)
        if plan.kind == "CROSS" or plan.condition is None:
            if plan.kind == "SEMI":
                return left_rows if right_rows > 0 else 0.0
            if plan.kind == "ANTI":
                return 0.0 if right_rows > 0 else left_rows
            return left_rows * right_rows
        keys = equi_join_keys(
            plan.condition, plan.left.output_columns, plan.right.output_columns
        )
        if keys is None:
            selectivity = self.selectivity(plan.condition, left_rows * right_rows)
            inner = left_rows * right_rows * max(selectivity, 1e-9)
        else:
            left_keys, right_keys, residual = keys
            denominator = 1.0
            for left_key, right_key in zip(left_keys, right_keys):
                left_ndv = self._expr_ndv(left_key, left_rows)
                right_ndv = self._expr_ndv(right_key, right_rows)
                denominator *= max(left_ndv, right_ndv, 1.0)
            inner = left_rows * right_rows / denominator
            for conjunct in residual:
                inner *= self.selectivity(conjunct, inner)
        if plan.kind == "INNER":
            return inner
        if plan.kind == "LEFT":
            return max(inner, left_rows)
        if plan.kind == "SEMI":
            return min(left_rows, inner)
        if plan.kind == "ANTI":
            return max(left_rows - inner, left_rows * 0.1)
        return inner

    def _aggregate_rows(self, plan: AggregateOp) -> float:
        if not plan.group_expressions:
            return 1.0
        child = self._rows(plan.child)
        return min(child, self._group_ndv(plan.group_expressions, child))

    def _group_ndv(self, expressions: Sequence[ast.Expr], rows: float) -> float:
        if rows <= 0:
            return 0.0
        product = 1.0
        for expr in expressions:
            product *= self._expr_ndv(expr, rows)
            if product >= rows:
                return rows
        return max(product, 1.0)

    def _expr_ndv(self, expr: ast.Expr, rows: float) -> float:
        if isinstance(expr, ast.BoundRef):
            return self.column_ndv(expr.column, rows)
        if isinstance(expr, ast.Literal):
            return 1.0
        columns = ast.referenced_columns(expr)
        if not columns:
            return 1.0
        product = 1.0
        for column in columns:
            product *= self.column_ndv(column, rows)
        return max(min(product, rows), 1.0)

    # -- selectivity ---------------------------------------------------------

    def _selectivity(self, predicate: ast.Expr, rows: float) -> float:
        if isinstance(predicate, ast.Literal):
            if predicate.value is True:
                return 1.0
            return 0.0  # FALSE and NULL both reject
        if isinstance(predicate, ast.BinaryOp):
            return self._binary_selectivity(predicate, rows)
        if isinstance(predicate, ast.UnaryOp) and predicate.op == "NOT":
            return 1.0 - self._selectivity(predicate.operand, rows)
        if isinstance(predicate, ast.IsNull):
            fraction = self._null_fraction(predicate.operand)
            return (1.0 - fraction) if predicate.negated else fraction
        if isinstance(predicate, ast.Between):
            return self._between_selectivity(predicate)
        if isinstance(predicate, ast.InList):
            return self._in_list_selectivity(predicate, rows)
        return DEFAULT_SELECTIVITY

    def _binary_selectivity(self, predicate: ast.BinaryOp, rows: float) -> float:
        op = predicate.op
        if op == "AND":
            return self._selectivity(predicate.left, rows) * self._selectivity(
                predicate.right, rows
            )
        if op == "OR":
            left = self._selectivity(predicate.left, rows)
            right = self._selectivity(predicate.right, rows)
            return left + right - left * right
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._comparison_selectivity(predicate, rows)
        if op == "LIKE":
            return DEFAULT_LIKE_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, predicate: ast.BinaryOp, rows: float) -> float:
        column, literal, op = _column_vs_literal(predicate)
        if column is not None and literal is None:
            return 0.0  # a comparison with NULL is never TRUE
        if column is None:
            if op == "=":
                # column = column (e.g. a residual join predicate)
                columns = ast.referenced_columns(predicate)
                if len(columns) == 2:
                    ndv = max(
                        self.column_ndv(columns[0], rows),
                        self.column_ndv(columns[1], rows),
                    )
                    return 1.0 / ndv
                return DEFAULT_EQ_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        stats = self._column_stats(column)
        if op == "=":
            if stats is not None:
                if self.use_histograms and stats.histogram is not None:
                    return (1.0 - stats.null_fraction) * stats.histogram.selectivity_eq(
                        literal
                    )
                return (1.0 - stats.null_fraction) / max(stats.distinct_count, 1.0)
            return DEFAULT_EQ_SELECTIVITY
        if op == "<>":
            return 1.0 - self._comparison_selectivity(
                ast.BinaryOp("=", predicate.left, predicate.right), rows
            )
        # Range operators.
        if stats is not None:
            non_null = 1.0 - stats.null_fraction
            if self.use_histograms and stats.histogram is not None:
                histogram = stats.histogram
                try:
                    if op == "<":
                        return non_null * histogram.selectivity_lt(literal)
                    if op == "<=":
                        return non_null * histogram.selectivity_le(literal)
                    if op == ">":
                        return non_null * (1.0 - histogram.selectivity_le(literal))
                    if op == ">=":
                        return non_null * (1.0 - histogram.selectivity_lt(literal))
                except TypeError:
                    return DEFAULT_RANGE_SELECTIVITY
            interpolated = _interpolate(stats, literal, op)
            if interpolated is not None:
                return non_null * interpolated
        return DEFAULT_RANGE_SELECTIVITY

    def _between_selectivity(self, predicate: ast.Between) -> float:
        base: float
        if (
            isinstance(predicate.operand, ast.BoundRef)
            and isinstance(predicate.low, ast.Literal)
            and isinstance(predicate.high, ast.Literal)
        ):
            stats = self._column_stats(predicate.operand.column)
            if stats is not None and self.use_histograms and stats.histogram is not None:
                try:
                    base = (1.0 - stats.null_fraction) * stats.histogram.selectivity_range(
                        predicate.low.value, predicate.high.value
                    )
                except TypeError:
                    base = DEFAULT_RANGE_SELECTIVITY**2
            else:
                base = DEFAULT_RANGE_SELECTIVITY**2
        else:
            base = DEFAULT_RANGE_SELECTIVITY**2
        return 1.0 - base if predicate.negated else base

    def _in_list_selectivity(self, predicate: ast.InList, rows: float) -> float:
        base = 0.0
        for item in predicate.items:
            base += self._selectivity(
                ast.BinaryOp("=", predicate.operand, item), rows
            )
        base = _clamp(base)
        return 1.0 - base if predicate.negated else base

    def _null_fraction(self, expr: ast.Expr) -> float:
        if isinstance(expr, ast.BoundRef):
            stats = self._column_stats(expr.column)
            if stats is not None:
                return _clamp(stats.null_fraction)
        return 0.05

    # -- stats lookup ---------------------------------------------------------

    def _column_stats(self, column: RelColumn) -> Optional[ColumnStatistics]:
        if column.origin is None:
            return None
        table_key, column_name = column.origin
        table_stats = self._catalog.statistics(table_key)
        if table_stats is None:
            return None
        return table_stats.column(column_name)


def _column_vs_literal(predicate: ast.BinaryOp):
    """Decompose ``col OP literal`` (either orientation; op is normalized)."""
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(predicate.left, ast.BoundRef) and isinstance(
        predicate.right, ast.Literal
    ):
        return predicate.left.column, predicate.right.value, predicate.op
    if isinstance(predicate.right, ast.BoundRef) and isinstance(
        predicate.left, ast.Literal
    ):
        return predicate.right.column, predicate.left.value, flip[predicate.op]
    return None, None, predicate.op


def _interpolate(stats: ColumnStatistics, literal: Any, op: str) -> Optional[float]:
    """Min/max linear interpolation when no histogram exists (numerics only)."""
    low, high = stats.min_value, stats.max_value
    if not isinstance(low, (int, float)) or not isinstance(high, (int, float)):
        return None
    if not isinstance(literal, (int, float)):
        return None
    if high <= low:
        return 0.5
    fraction = _clamp((literal - low) / (high - low))
    if op in ("<", "<="):
        return fraction
    return 1.0 - fraction


def _clamp(value: float) -> float:
    if value != value:  # NaN
        return DEFAULT_SELECTIVITY
    return min(max(value, 0.0), 1.0)
