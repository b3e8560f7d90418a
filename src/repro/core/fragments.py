"""Fragments: the unit of work shipped to a component system.

A :class:`Fragment` is a self-contained logical plan whose scan leaves all
belong to one source. The pushdown planner builds fragments within the
source's declared capability envelope; wrappers either compile them to
native SQL (:class:`~repro.sources.sqlite.SQLiteSource`) or, when the
native system has no engine of its own, run them inside the wrapper on
the mediator's own operators (:func:`repro.core.physical.run_fragment`,
which :class:`~repro.sources.memory.MemorySource` uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..sql import ast
from .logical import LogicalPlan, RelColumn, ScanOp


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


def key_values(conjunct: ast.Expr, key_column: str, mapping: Any) -> Optional[set]:
    """The literal key values one conjunct selects, or None if unsupported.

    Supported are ``key = literal`` (either side) and ``key IN (literals)``
    on the remote ``key_column``. The pushdown planner ships a filter to a
    key-lookup source only when every conjunct has a key set; the wrapper
    answers it from the same sets.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        sides = [conjunct.left, conjunct.right]
        for ref, literal in (sides, sides[::-1]):
            if (
                isinstance(ref, ast.BoundRef)
                and isinstance(literal, ast.Literal)
                and mapping.remote_column(ref.column.name).lower() == key_column.lower()
            ):
                return {literal.value}
        return None
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and isinstance(conjunct.operand, ast.BoundRef)
        and mapping.remote_column(conjunct.operand.column.name).lower()
        == key_column.lower()
        and all(isinstance(item, ast.Literal) for item in conjunct.items)
    ):
        return {item.value for item in conjunct.items}  # type: ignore[union-attr]
    return None
