"""Fragment canonicalization and predicate subsumption.

Two related capabilities live here:

* :func:`canonical_fragment_key` — a deterministic, value-complete text
  serialization of a pushed fragment plan. Two fragments that would send
  the identical request to the identical source serialize identically,
  even though every parse mints fresh :class:`RelColumn` identities —
  columns are numbered by first appearance (``$0``, ``$1``, ...) instead
  of by ``column_id``. ``None`` means the plan contains a node the
  serializer does not understand; such fragments are simply not cached.

* :class:`FragmentShape` — a semantic summary of the common single-scan
  fragment shapes (``Scan``, ``Filter(Scan)``, ``Project[refs](Scan)``,
  ``Project[refs](Filter(Scan))``): which native columns are shipped and
  what each conjunct of the pushed predicate constrains. Shapes power
  *subsumption*: :func:`shape_contains` decides whether every row a new
  fragment could return is already present in a cached fragment's result,
  so the cached pages (plus a mediator-side residual filter) can answer
  the new fragment without touching the network.

Subsumption is deliberately conservative. Constraints it reasons about
are per-column intervals (``<``, ``<=``, ``>``, ``>=``, ``=``,
``BETWEEN``), value sets (``=``, ``IN``), and nullability (``IS [NOT]
NULL``); every other conjunct is *opaque* and matches only by exact
canonical text. WHERE-clause three-valued logic makes the interval rules
sound for NULL-bearing columns: a comparison conjunct evaluates to NULL
(treated as false) for a NULL operand, so a range constraint implies
``IS NOT NULL`` over the selected rows. Any comparison between
incomparable Python values abandons the check — "don't know" always
means "don't serve from cache".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..sql import ast
from ..sql.ast import COMPARISON_OPS
from ..core.fragments import Fragment
from ..core.logical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    LimitOp,
    LogicalPlan,
    ProjectOp,
    ScanOp,
    SortOp,
    UnionOp,
    ValuesOp,
)

__all__ = [
    "FragmentShape",
    "canonical_fragment_key",
    "fragment_shape",
    "shape_contains",
]

#: ValuesOp fragments larger than this are not worth keying (the key
#: would embed every literal row).
_MAX_VALUES_ROWS = 256


class _Uncacheable(Exception):
    """Raised internally when a plan/expression defies serialization."""


# ---------------------------------------------------------------------------
# expression serialization
# ---------------------------------------------------------------------------


def _literal(expr: ast.Literal) -> str:
    dtype = getattr(expr.dtype, "value", expr.dtype)
    return f"lit<{dtype}>({expr.value!r})"


def _serialize_expr(expr: ast.Expr, ref: Callable[[Any], str]) -> str:
    """Render a bound expression with ``ref`` naming each RelColumn."""
    if isinstance(expr, ast.Literal):
        return _literal(expr)
    if isinstance(expr, ast.BoundRef):
        return ref(expr.column)
    if isinstance(expr, ast.BinaryOp):
        left = _serialize_expr(expr.left, ref)
        right = _serialize_expr(expr.right, ref)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op} {_serialize_expr(expr.operand, ref)})"
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(_serialize_expr(arg, ref) for arg in expr.args)
        star = "*" if expr.star else args
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{star})"
    if isinstance(expr, ast.Case):
        parts = []
        if expr.operand is not None:
            parts.append(_serialize_expr(expr.operand, ref))
        for when, then in expr.whens:
            parts.append(
                f"WHEN {_serialize_expr(when, ref)} "
                f"THEN {_serialize_expr(then, ref)}"
            )
        if expr.else_result is not None:
            parts.append(f"ELSE {_serialize_expr(expr.else_result, ref)}")
        return f"CASE[{' '.join(parts)}]"
    if isinstance(expr, ast.Cast):
        dtype = getattr(expr.dtype, "value", expr.dtype)
        return f"CAST({_serialize_expr(expr.operand, ref)} AS {dtype})"
    if isinstance(expr, ast.InList):
        items = ", ".join(_serialize_expr(item, ref) for item in expr.items)
        negated = "NOT " if expr.negated else ""
        return f"({_serialize_expr(expr.operand, ref)} {negated}IN [{items}])"
    if isinstance(expr, ast.IsNull):
        negated = "NOT " if expr.negated else ""
        return f"({_serialize_expr(expr.operand, ref)} IS {negated}NULL)"
    if isinstance(expr, ast.Between):
        negated = "NOT " if expr.negated else ""
        return (
            f"({_serialize_expr(expr.operand, ref)} {negated}BETWEEN "
            f"{_serialize_expr(expr.low, ref)} AND "
            f"{_serialize_expr(expr.high, ref)})"
        )
    raise _Uncacheable(type(expr).__name__)


# ---------------------------------------------------------------------------
# canonical fragment keys (exact matching, any pushable shape)
# ---------------------------------------------------------------------------


class _ColumnNumbering:
    """First-appearance positional numbering of RelColumn identities."""

    def __init__(self) -> None:
        self._ids: Dict[int, str] = {}

    def assign(self, column: Any) -> str:
        name = self._ids.get(column.column_id)
        if name is None:
            name = f"${len(self._ids)}"
            self._ids[column.column_id] = name
        return name

    def ref(self, column: Any) -> str:
        name = self._ids.get(column.column_id)
        if name is None:
            # A reference to a column no node introduced — defensive; such
            # a plan is not self-contained and must not be keyed.
            raise _Uncacheable("unbound column reference")
        return name


def _serialize_plan(plan: LogicalPlan, numbering: _ColumnNumbering) -> str:
    if isinstance(plan, ScanOp):
        mapping = plan.effective_mapping
        cols = ",".join(
            f"{mapping.remote_column(col.name)}={numbering.assign(col)}"
            for col in plan.columns
        )
        return (
            f"Scan(src={mapping.source.lower()},"
            f"tab={mapping.remote_table.lower()},cols=[{cols}])"
        )
    if isinstance(plan, FilterOp):
        child = _serialize_plan(plan.child, numbering)
        pred = _serialize_expr(plan.predicate, numbering.ref)
        return f"Filter({pred})[{child}]"
    if isinstance(plan, ProjectOp):
        child = _serialize_plan(plan.child, numbering)
        exprs = ",".join(
            f"{_serialize_expr(expr, numbering.ref)}"
            f"->{numbering.assign(col)}"
            for expr, col in zip(plan.expressions, plan.columns)
        )
        return f"Project([{exprs}])[{child}]"
    if isinstance(plan, AggregateOp):
        child = _serialize_plan(plan.child, numbering)
        groups = ",".join(
            f"{_serialize_expr(expr, numbering.ref)}"
            f"->{numbering.assign(col)}"
            for expr, col in zip(plan.group_expressions, plan.group_columns)
        )
        calls = ",".join(
            "{fn}({distinct}{arg})->{out}".format(
                fn=call.function,
                distinct="DISTINCT " if call.distinct else "",
                arg=(
                    _serialize_expr(call.argument, numbering.ref)
                    if call.argument is not None
                    else "*"
                ),
                out=numbering.assign(col),
            )
            for call, col in zip(plan.aggregates, plan.aggregate_columns)
        )
        return f"Agg(groups=[{groups}],calls=[{calls}])[{child}]"
    if isinstance(plan, SortOp):
        child = _serialize_plan(plan.child, numbering)
        keys = ",".join(
            f"{_serialize_expr(key, numbering.ref)}:{'asc' if asc else 'desc'}"
            for key, asc in plan.keys
        )
        return f"Sort([{keys}])[{child}]"
    if isinstance(plan, LimitOp):
        child = _serialize_plan(plan.child, numbering)
        return f"Limit({plan.limit},{plan.offset})[{child}]"
    if isinstance(plan, DistinctOp):
        return f"Distinct[{_serialize_plan(plan.child, numbering)}]"
    if isinstance(plan, UnionOp):
        inputs = ",".join(
            _serialize_plan(child, numbering) for child in plan.inputs
        )
        for col in plan.columns:
            numbering.assign(col)
        return f"Union(all={plan.all})[{inputs}]"
    if type(plan) is ValuesOp:
        if len(plan.rows) > _MAX_VALUES_ROWS:
            raise _Uncacheable("values fragment too large to key")
        for col in plan.columns:
            numbering.assign(col)
        return f"Values({plan.rows!r})"
    # JoinOp comes after the leaf types so numbering sees left before right.
    from ..core.logical import JoinOp

    if isinstance(plan, JoinOp):
        left = _serialize_plan(plan.left, numbering)
        right = _serialize_plan(plan.right, numbering)
        cond = (
            _serialize_expr(plan.condition, numbering.ref)
            if plan.condition is not None
            else "TRUE"
        )
        return f"Join({plan.kind},{cond})[{left};{right}]"
    raise _Uncacheable(type(plan).__name__)


def canonical_fragment_key(fragment: Fragment) -> Optional[str]:
    """A deterministic text key for a pushed fragment, or ``None``.

    The key embeds the target source, native table/column vocabulary,
    plan structure, and every literal (dtype-tagged), and numbers columns
    by first appearance — so equal requests collide across independent
    plans while anything value- or structure-different cannot.
    """
    numbering = _ColumnNumbering()
    try:
        body = _serialize_plan(fragment.plan, numbering)
        # The output projection is part of the contract: same body with a
        # different output column order is a different result.
        outputs = ",".join(
            numbering.ref(col) for col in fragment.output_columns
        )
    except _Uncacheable:
        return None
    except Exception:  # defensive: an odd plan must never break execution
        return None
    return f"{fragment.source_name.lower()}|{body}|out=[{outputs}]"


# ---------------------------------------------------------------------------
# single-scan fragment shapes (subsumption)
# ---------------------------------------------------------------------------


@dataclass
class ColumnConstraint:
    """The merged constraint one predicate places on one native column.

    Satisfying rows have the column (a) NULL iff ``is_null``; (b) in
    ``eq_values`` when that set is present; (c) inside the
    ``lo``/``hi`` interval when bounds are present. Bounds, value sets,
    and ``not_null`` each imply the column is non-NULL (3VL: a NULL
    operand fails the conjunct).
    """

    lo: Any = None
    lo_strict: bool = False
    hi: Any = None
    hi_strict: bool = False
    eq_values: Optional[FrozenSet[Any]] = None
    not_null: bool = False
    is_null: bool = False

    @property
    def has_bounds(self) -> bool:
        return self.lo is not None or self.hi is not None

    @property
    def guarantees_not_null(self) -> bool:
        return self.not_null or self.has_bounds or self.eq_values is not None

    def add_lower(self, value: Any, strict: bool) -> None:
        if self.lo is None or value > self.lo or (
            value == self.lo and strict and not self.lo_strict
        ):
            self.lo, self.lo_strict = value, strict

    def add_upper(self, value: Any, strict: bool) -> None:
        if self.hi is None or value < self.hi or (
            value == self.hi and strict and not self.hi_strict
        ):
            self.hi, self.hi_strict = value, strict

    def add_values(self, values: FrozenSet[Any]) -> None:
        if self.eq_values is None:
            self.eq_values = values
        else:
            self.eq_values = self.eq_values & values

    def admits(self, value: Any) -> bool:
        """Does a non-NULL ``value`` satisfy the interval and value set?"""
        if self.eq_values is not None and value not in self.eq_values:
            return False
        if self.lo is not None:
            if value < self.lo or (value == self.lo and self.lo_strict):
                return False
        if self.hi is not None:
            if value > self.hi or (value == self.hi and self.hi_strict):
                return False
        return True

    def excludes_range(self, low: Any, high: Any) -> bool:
        """Does no value in ``[low, high]`` satisfy this constraint? True
        means a column whose non-NULL values all lie there yields no row
        (a bound or value set rejects NULL too). Unknown bounds (None) and
        incomparable values answer False."""
        if low is None or high is None:
            return False
        if self.eq_values is None and not self.has_bounds:
            return False
        try:
            if self.eq_values is not None:
                return not any(
                    low <= value <= high and self.admits(value)
                    for value in self.eq_values
                )
            if self.lo is not None and (
                self.lo > high or (self.lo == high and self.lo_strict)
            ):
                return True
            return self.hi is not None and (
                self.hi < low or (self.hi == low and self.hi_strict)
            )
        except TypeError:
            return False


@dataclass
class FragmentShape:
    """Semantic summary of a single-scan pushed fragment.

    ``columns`` are the *native* names of the fragment's output columns,
    in output order; ``native_by_column_id`` translates every scan
    RelColumn (usable by residual-filter layouts); ``constraints`` /
    ``opaque`` decompose the pushed predicate per the module docstring.
    ``predicate`` is the original bound predicate (or None) — the
    residual the mediator re-applies over a superset entry's pages.
    """

    source: str
    table: str
    columns: Tuple[str, ...]
    dtypes: Tuple[Any, ...]
    native_by_column_id: Dict[int, str]
    predicate: Optional[ast.Expr]
    constraints: Dict[str, ColumnConstraint]
    opaque: FrozenSet[str]

    @property
    def table_key(self) -> Tuple[str, str]:
        return (self.source, self.table)


def _is_pure_projection(project: ProjectOp) -> bool:
    return all(
        isinstance(expr, ast.BoundRef) for expr in project.expressions
    )


def _comparison_constraint(
    constraint: ColumnConstraint, op: str, value: Any
) -> bool:
    """Fold ``col <op> value`` into ``constraint``; False = unsupported."""
    if value is None:
        return False  # `col > NULL` never selects; leave it opaque
    if op == "=":
        constraint.add_values(frozenset((value,)))
    elif op == ">":
        constraint.add_lower(value, strict=True)
    elif op == ">=":
        constraint.add_lower(value, strict=False)
    elif op == "<":
        constraint.add_upper(value, strict=True)
    elif op == "<=":
        constraint.add_upper(value, strict=False)
    else:
        return False  # `<>` carries no useful containment structure
    return True


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _analyze_conjunct(
    conjunct: ast.Expr,
    native: Callable[[Any], str],
    constraints: Dict[str, ColumnConstraint],
) -> bool:
    """Fold one conjunct into per-column constraints; False = opaque."""

    def constraint_for(column: Any) -> ColumnConstraint:
        return constraints.setdefault(native(column), ColumnConstraint())

    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in COMPARISON_OPS:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, ast.Literal) and isinstance(right, ast.BoundRef):
            left, right, op = right, left, _FLIPPED.get(op, "")
        if (
            isinstance(left, ast.BoundRef)
            and isinstance(right, ast.Literal)
            and op
        ):
            return _comparison_constraint(
                constraint_for(left.column), op, right.value
            )
        return False
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        if (
            isinstance(conjunct.operand, ast.BoundRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
            and conjunct.low.value is not None
            and conjunct.high.value is not None
        ):
            constraint = constraint_for(conjunct.operand.column)
            constraint.add_lower(conjunct.low.value, strict=False)
            constraint.add_upper(conjunct.high.value, strict=False)
            return True
        return False
    if isinstance(conjunct, ast.InList) and not conjunct.negated:
        if isinstance(conjunct.operand, ast.BoundRef) and all(
            isinstance(item, ast.Literal) and item.value is not None
            for item in conjunct.items
        ):
            constraint_for(conjunct.operand.column).add_values(
                frozenset(item.value for item in conjunct.items)
            )
            return True
        return False
    if isinstance(conjunct, ast.IsNull):
        if isinstance(conjunct.operand, ast.BoundRef):
            constraint = constraint_for(conjunct.operand.column)
            if conjunct.negated:
                constraint.not_null = True
            else:
                constraint.is_null = True
            return True
        return False
    return False


def fragment_shape(fragment: Fragment) -> Optional[FragmentShape]:
    """Analyze a fragment into a :class:`FragmentShape`, or ``None``.

    Only the pure single-scan shapes qualify; anything else (joins,
    aggregates, computed projections, sorts/limits) falls back to
    exact-key caching.
    """
    try:
        return _fragment_shape(fragment)
    except _Uncacheable:
        return None
    except Exception:  # pragma: no cover - defensive, mirrors key path
        return None


def _fragment_shape(fragment: Fragment) -> Optional[FragmentShape]:
    plan = fragment.plan
    project: Optional[ProjectOp] = None
    if isinstance(plan, ProjectOp):
        if not _is_pure_projection(plan):
            return None
        project = plan
        plan = plan.child
    predicate: Optional[ast.Expr] = None
    if isinstance(plan, FilterOp):
        predicate = plan.predicate
        plan = plan.child
    if not isinstance(plan, ScanOp):
        return None
    scan = plan
    mapping = scan.effective_mapping
    native_by_column_id = {
        col.column_id: mapping.remote_column(col.name) for col in scan.columns
    }
    if project is not None:
        # A pure projection mints fresh output RelColumns; alias each to
        # the native name of the scan column its BoundRef carries so the
        # fragment's output columns resolve below.
        for expr, col in zip(project.expressions, project.columns):
            name = native_by_column_id.get(expr.column.column_id)
            if name is None:
                return None
            native_by_column_id[col.column_id] = name

    def native(column: Any) -> str:
        name = native_by_column_id.get(column.column_id)
        if name is None:
            raise _Uncacheable("predicate references a non-scan column")
        return name

    outputs: List[str] = []
    dtypes: List[Any] = []
    for column in fragment.output_columns:
        name = native_by_column_id.get(column.column_id)
        if name is None:
            return None
        outputs.append(name)
        dtypes.append(column.dtype)

    constraints: Dict[str, ColumnConstraint] = {}
    opaque: List[str] = []
    for conjunct in ast.conjuncts(predicate):
        if not _analyze_conjunct(conjunct, native, constraints):
            opaque.append(_serialize_expr(conjunct, lambda c: native(c)))
    return FragmentShape(
        source=fragment.source_name.lower(),
        table=mapping.remote_table.lower(),
        columns=tuple(outputs),
        dtypes=tuple(dtypes),
        native_by_column_id=native_by_column_id,
        predicate=predicate,
        constraints=constraints,
        opaque=frozenset(opaque),
    )


def _constraint_implies(
    new: Optional[ColumnConstraint], cached: ColumnConstraint
) -> bool:
    """Does the new fragment's constraint on a column imply the cached one?"""
    if cached.is_null:
        # Cached kept only NULL rows; new must also select only NULLs.
        return new is not None and new.is_null
    if new is not None and new.is_null:
        # New keeps only NULL rows; fine iff cached kept them too (it did
        # not demand non-NULL) — an is_null mixed with bounds selects
        # nothing, which is trivially contained.
        if new.guarantees_not_null:
            return True
        return not cached.guarantees_not_null
    if cached.guarantees_not_null:
        if new is None or not new.guarantees_not_null:
            return False
    if cached.eq_values is not None:
        if new is None or new.eq_values is None:
            return False
        if not new.eq_values <= cached.eq_values:
            return False
    if cached.has_bounds:
        assert new is not None
        if new.eq_values is not None:
            return all(cached.admits(value) for value in new.eq_values)
        if cached.lo is not None:
            if new.lo is None:
                return False
            if new.lo < cached.lo:
                return False
            if new.lo == cached.lo and cached.lo_strict and not new.lo_strict:
                return False
        if cached.hi is not None:
            if new.hi is None:
                return False
            if new.hi > cached.hi:
                return False
            if new.hi == cached.hi and cached.hi_strict and not new.hi_strict:
                return False
    return True


def shape_contains(cached: FragmentShape, new: FragmentShape) -> bool:
    """Is every row the new fragment selects present in the cached result?

    Requires the same source-native table, the new fragment's needed
    columns (outputs *and* predicate references) all shipped by the
    cached fragment, and the cached predicate implied by the new one —
    conjunct by conjunct, with opaque conjuncts matching only verbatim.
    """
    if cached.table_key != new.table_key:
        return False
    available = set(cached.columns)
    if not set(new.columns) <= available:
        return False
    if new.predicate is not None:
        referenced = {
            new.native_by_column_id.get(column.column_id)
            for column in ast.referenced_columns(new.predicate)
        }
        if not referenced <= available:
            return False
    if not cached.opaque <= new.opaque:
        return False
    try:
        for name, constraint in cached.constraints.items():
            if not _constraint_implies(new.constraints.get(name), constraint):
                return False
    except TypeError:
        # Incomparable literal types (e.g. str vs int) — refuse the hit.
        return False
    return True


def residual_plan(
    cached: FragmentShape, new: FragmentShape
) -> Tuple[Optional[ast.Expr], Dict[int, int], List[int]]:
    """What a subsumed probe must do to the cached pages.

    Returns ``(predicate, layout, projection)``: the new fragment's full
    predicate to re-apply (None when it had no filter), a
    ``column_id -> cached position`` layout for compiling it, and the
    cached-page positions of the new fragment's output columns in order.
    Only valid after :func:`shape_contains` returned True.
    """
    position = {name: i for i, name in enumerate(cached.columns)}
    layout = {
        column_id: position[name]
        for column_id, name in new.native_by_column_id.items()
        if name in position
    }
    projection = [position[name] for name in new.columns]
    return new.predicate, layout, projection
