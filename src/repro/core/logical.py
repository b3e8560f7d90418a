"""Logical relational algebra.

A logical plan is a tree of operator dataclasses whose expressions reference
columns through :class:`RelColumn` objects with *identity* semantics: every
scan instance mints fresh columns, so self-joins, renamed views, and moved
predicates can never be confused by name. Physical planning later maps each
operator's output columns to row positions.

Every operator exposes ``output_columns`` (its schema), ``children()``, and
``with_children()`` so rewrite rules can traverse generically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..catalog.catalog import CatalogTable
from ..datatypes import DataType
from ..errors import PlanError
from ..sql import ast

_column_ids = itertools.count(1)


class RelColumn:
    """A column of one relation *instance* inside a plan.

    ``origin`` preserves the (global table name, column name) lineage for
    statistics lookups; derived columns (computed expressions, aggregate
    results) have ``origin=None``. Equality is identity.
    """

    __slots__ = ("name", "dtype", "origin", "column_id")

    def __init__(
        self,
        name: str,
        dtype: DataType,
        origin: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.name = name
        self.dtype = dtype
        self.origin = origin
        self.column_id = next(_column_ids)

    def ref(self) -> ast.BoundRef:
        """A bound expression referencing this column."""
        return ast.BoundRef(self)

    def derive(self, name: Optional[str] = None) -> "RelColumn":
        """A fresh column with the same type and lineage (new identity)."""
        return RelColumn(name or self.name, self.dtype, self.origin)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"${self.column_id}:{self.name}"


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate computation: ``function(argument)`` with DISTINCT flag.

    ``argument`` is None for ``COUNT(*)``.
    """

    function: str  # COUNT | SUM | AVG | MIN | MAX
    argument: Optional[ast.Expr]
    distinct: bool = False


class LogicalPlan:
    """Base class for logical operators."""

    @property
    def output_columns(self) -> List[RelColumn]:
        raise NotImplementedError

    def children(self) -> List["LogicalPlan"]:
        raise NotImplementedError

    def with_children(self, children: List["LogicalPlan"]) -> "LogicalPlan":
        """A copy of this node with replaced children (same arity)."""
        raise NotImplementedError

    # -- conveniences --------------------------------------------------------

    def walk(self) -> Iterator["LogicalPlan"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def column_by_name(self, name: str) -> RelColumn:
        """Find an output column by (case-insensitive) name; raise if absent."""
        for column in self.output_columns:
            if column.name.lower() == name.lower():
                return column
        raise PlanError(f"plan has no output column named {name!r}")


@dataclass
class ScanOp(LogicalPlan):
    """Scan of a global base table (leaf until pushdown replaces it).

    ``mapping`` overrides the catalog's primary mapping when the replica
    selector chose a different copy of the table; adapters and planners
    must always go through :attr:`effective_mapping`.
    """

    table: CatalogTable
    binding_name: str
    columns: List[RelColumn]
    mapping: Optional[Any] = None  # TableMapping replica override

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        return []

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        if children:
            raise PlanError("ScanOp takes no children")
        return self

    @property
    def effective_mapping(self):
        """The mapping this scan actually uses (replica override or primary)."""
        mapping = self.mapping or self.table.mapping
        if mapping is None:
            raise PlanError(f"table {self.table.name!r} has no source mapping")
        return mapping

    @property
    def source_name(self) -> str:
        """The component system holding this table."""
        return self.effective_mapping.source


@dataclass
class FilterOp(LogicalPlan):
    """Row selection by a boolean predicate."""

    child: LogicalPlan
    predicate: ast.Expr

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.child.output_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return FilterOp(child, self.predicate)


@dataclass
class ProjectOp(LogicalPlan):
    """Computes ``expressions`` and names the results ``columns`` (1:1)."""

    child: LogicalPlan
    expressions: List[ast.Expr]
    columns: List[RelColumn]

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return ProjectOp(child, self.expressions, self.columns)

    def is_trivial(self) -> bool:
        """True if this projection merely forwards the child's columns."""
        child_columns = self.child.output_columns
        if len(self.expressions) != len(child_columns):
            return False
        for expr, child_column, out in zip(
            self.expressions, child_columns, self.columns
        ):
            if not isinstance(expr, ast.BoundRef) or expr.column is not child_column:
                return False
            if out.name.lower() != child_column.name.lower():
                return False
        return True


JOIN_KINDS = ("INNER", "LEFT", "CROSS", "SEMI", "ANTI")


@dataclass
class JoinOp(LogicalPlan):
    """Binary join. SEMI/ANTI output only the left side's columns.

    ``null_aware`` marks an ANTI join produced from ``NOT IN``: if the right
    side contains any NULL key the join emits nothing, and left rows with a
    NULL probe key are dropped (SQL NOT IN semantics).
    """

    left: LogicalPlan
    right: LogicalPlan
    kind: str = "INNER"
    condition: Optional[ast.Expr] = None
    null_aware: bool = False

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind: {self.kind!r}")

    @property
    def output_columns(self) -> List[RelColumn]:
        if self.kind in ("SEMI", "ANTI"):
            return self.left.output_columns
        return self.left.output_columns + self.right.output_columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        left, right = children
        return JoinOp(left, right, self.kind, self.condition, self.null_aware)


@dataclass
class AggregateOp(LogicalPlan):
    """Grouped aggregation.

    Output columns are ``group_columns + aggregate_columns``, where
    ``group_columns[i]`` names the value of ``group_expressions[i]`` and
    ``aggregate_columns[j]`` names the result of ``aggregates[j]``. A global
    aggregate has no group expressions and emits exactly one row.
    """

    child: LogicalPlan
    group_expressions: List[ast.Expr]
    group_columns: List[RelColumn]
    aggregates: List[AggregateCall]
    aggregate_columns: List[RelColumn]

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.group_columns + self.aggregate_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return AggregateOp(
            child,
            self.group_expressions,
            self.group_columns,
            self.aggregates,
            self.aggregate_columns,
        )


@dataclass(frozen=True)
class WindowSpec:
    """One window computation over the child's rows.

    ``function`` is ROW_NUMBER/RANK/DENSE_RANK (argument None) or an
    aggregate name; aggregates compute over the whole partition (no
    frames). ``order_keys`` only affect ranking functions.
    """

    function: str
    argument: Optional[ast.Expr]
    partition_by: Tuple[ast.Expr, ...]
    order_keys: Tuple[Tuple[ast.Expr, bool], ...]


@dataclass
class WindowOp(LogicalPlan):
    """Appends one computed column per window spec to the child's rows."""

    child: LogicalPlan
    specs: List[WindowSpec]
    window_columns: List[RelColumn]

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.child.output_columns + self.window_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return WindowOp(child, self.specs, self.window_columns)


@dataclass
class SortOp(LogicalPlan):
    """Total order by a list of (expression, ascending) keys."""

    child: LogicalPlan
    keys: List[Tuple[ast.Expr, bool]]

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.child.output_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return SortOp(child, self.keys)


@dataclass
class LimitOp(LogicalPlan):
    """Row-count limit with optional offset."""

    child: LogicalPlan
    limit: Optional[int]
    offset: int = 0

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.child.output_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return LimitOp(child, self.limit, self.offset)


@dataclass
class DistinctOp(LogicalPlan):
    """Duplicate elimination over all output columns."""

    child: LogicalPlan

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.child.output_columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        (child,) = children
        return DistinctOp(child)


@dataclass
class UnionOp(LogicalPlan):
    """N-ary UNION [ALL]; children line up positionally with ``columns``."""

    inputs: List[LogicalPlan]
    columns: List[RelColumn]
    all: bool = True

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        return list(self.inputs)

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        return UnionOp(list(children), self.columns, self.all)


@dataclass
class SetDifferenceOp(LogicalPlan):
    """EXCEPT / INTERSECT, set semantics by default, bag with ``all``.

    Bag semantics follow the SQL standard: ``EXCEPT ALL`` subtracts
    multiplicities, ``INTERSECT ALL`` takes their minimum.
    """

    left: LogicalPlan
    right: LogicalPlan
    operation: str  # "EXCEPT" | "INTERSECT"
    columns: List[RelColumn] = field(default_factory=list)
    all: bool = False

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        left, right = children
        return SetDifferenceOp(left, right, self.operation, self.columns, self.all)


@dataclass
class ValuesOp(LogicalPlan):
    """Literal rows (used for FROM-less SELECTs: one empty row)."""

    rows: List[Tuple[Any, ...]]
    columns: List[RelColumn]

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        return []

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        if children:
            raise PlanError("ValuesOp takes no children")
        return self


@dataclass
class MaterializedRowsOp(ValuesOp):
    """A materialized view snapshot spliced into a plan at bind time.

    Behaves exactly like :class:`ValuesOp` everywhere (physical planning,
    interpretation, cardinality) — the subclass exists so EXPLAIN shows
    the substitution, the mediator can count materialized-view hits, and
    the plan cache can refuse to store plans whose rows would go stale
    on a clock it cannot observe.
    """

    view_name: str = ""


@dataclass(frozen=True)
class BindSpec:
    """Semijoin (bind-join) reduction attached to a remote fragment.

    At run time the executor materializes the join's other side, extracts
    the distinct values of ``probe_key`` (an expression over that side's
    output), and executes the fragment once per batch of at most
    ``batch_size`` keys with ``fragment_key IN (<batch>)`` injected — the
    SDD-1 semijoin realized as a bind join.
    """

    probe_key: ast.Expr
    fragment_key: RelColumn
    batch_size: int


@dataclass
class RemoteQueryOp(LogicalPlan):
    """A fragment delegated to one component system.

    ``fragment`` is a self-contained logical plan whose leaves are ScanOps of
    tables on ``source_name``; the wrapper executes it natively (SQL
    sources compile it; others interpret within their capability envelope).
    ``columns`` are the *same* RelColumn objects as the fragment's output, so
    upstream references remain valid across the cut.

    ``estimated_rows`` is stamped by the pushdown planner so later phases
    need not re-derive fragment cardinality. ``bind`` (if set) is a semijoin
    reduction; see :class:`BindSpec`.
    """

    source_name: str
    fragment: LogicalPlan
    columns: List[RelColumn]
    estimated_rows: float = 0.0
    bind: Optional[BindSpec] = None

    @property
    def output_columns(self) -> List[RelColumn]:
        return self.columns

    def children(self) -> List[LogicalPlan]:
        # The fragment is *not* a child: rewrites above the source boundary
        # must not reach into it.
        return []

    def with_children(self, children: List[LogicalPlan]) -> LogicalPlan:
        if children:
            raise PlanError("RemoteQueryOp takes no children")
        return self


# ---------------------------------------------------------------------------
# Plan utilities
# ---------------------------------------------------------------------------


def transform_plan(plan: LogicalPlan, fn) -> LogicalPlan:
    """Bottom-up plan rewrite. ``fn(node) -> node | None`` (None keeps it)."""
    children = plan.children()
    new_children = [transform_plan(child, fn) for child in children]
    if any(new is not old for new, old in zip(new_children, children)):
        plan = plan.with_children(new_children)
    replacement = fn(plan)
    return replacement if replacement is not None else plan


def plan_columns_set(plan: LogicalPlan) -> set:
    """Identity set (ids) of the plan's output columns."""
    return {id(column) for column in plan.output_columns}


def explain_plan(
    plan: LogicalPlan,
    indent: int = 0,
    estimates: Optional[Dict[int, float]] = None,
) -> str:
    """Human-readable plan tree (used by EXPLAIN and tests).

    ``estimates`` optionally maps ``id(node)`` to estimated output rows;
    annotated as ``~N rows`` after each node that has one.
    """
    pad = "  " * indent
    label = type(plan).__name__.replace("Op", "")
    details = ""
    if isinstance(plan, ScanOp):
        details = f" {plan.table.name}"
        if plan.binding_name.lower() != plan.table.name.lower():
            details += f" AS {plan.binding_name}"
    elif isinstance(plan, FilterOp):
        details = f" [{_safe_expr(plan.predicate)}]"
    elif isinstance(plan, ProjectOp):
        details = " [" + ", ".join(c.name for c in plan.columns) + "]"
    elif isinstance(plan, JoinOp):
        details = f" {plan.kind}"
        if plan.condition is not None:
            details += f" [{_safe_expr(plan.condition)}]"
    elif isinstance(plan, AggregateOp):
        groups = ", ".join(c.name for c in plan.group_columns) or "()"
        aggs = ", ".join(
            f"{a.function}({'*' if a.argument is None else _safe_expr(a.argument)})"
            for a in plan.aggregates
        )
        details = f" groups=[{groups}] aggs=[{aggs}]"
    elif isinstance(plan, SortOp):
        details = " [" + ", ".join(
            _safe_expr(expr) + ("" if asc else " DESC") for expr, asc in plan.keys
        ) + "]"
    elif isinstance(plan, LimitOp):
        details = f" limit={plan.limit} offset={plan.offset}"
    elif isinstance(plan, UnionOp):
        details = " ALL" if plan.all else ""
    elif isinstance(plan, SetDifferenceOp):
        details = f" {plan.operation}"
    elif isinstance(plan, RemoteQueryOp):
        details = f" source={plan.source_name} est_rows={plan.estimated_rows:.0f}"
        if plan.bind is not None:
            details += f" bind[{plan.bind.fragment_key.name}]"
    if estimates is not None and id(plan) in estimates:
        details += f"  ~{estimates[id(plan)]:.0f} rows"
    lines = [f"{pad}{label}{details}"]
    if isinstance(plan, RemoteQueryOp):
        lines.append(explain_plan(plan.fragment, indent + 1, estimates))
    for child in plan.children():
        lines.append(explain_plan(child, indent + 1, estimates))
    return "\n".join(lines)


def _safe_expr(expr: ast.Expr) -> str:
    """Render a bound expression for EXPLAIN (falls back on node names)."""
    from ..sql import printer

    class _ExplainDialect(printer.SQLDialect):
        def quote_identifier(self, identifier: str) -> str:
            return identifier

    try:
        converted = _refs_to_names(expr)
        return printer.print_expression(converted, _ExplainDialect())
    except Exception:  # pragma: no cover - defensive
        return type(expr).__name__


def _refs_to_names(expr: ast.Expr) -> ast.Expr:
    def convert(node: ast.Expr):
        if isinstance(node, ast.BoundRef):
            return ast.ColumnRef(None, node.column.name)
        return None

    return ast.transform_expression(expr, convert)
