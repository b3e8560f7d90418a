"""Sort-merge join: equivalence with hash join and operator-level behavior."""

import pytest

from repro import Catalog, PlannerOptions, SimulatedNetwork
from repro.core.logical import RelColumn
from repro.core.physical import (
    ExecutionContext,
    MergeJoinExec,
    StaticRowsExec,
)
from repro.datatypes import DataType
from repro.sql import ast

from .conftest import assert_same_rows, drain, make_small_gis


def ctx():
    return ExecutionContext(Catalog(), SimulatedNetwork(), PlannerOptions())


def columns(*specs):
    return [RelColumn(name, dtype) for name, dtype in specs]


INT = DataType.INTEGER
TEXT = DataType.TEXT


def merge_join(left_rows, right_rows, residual=None):
    left_cols = columns(("lk", INT), ("lv", TEXT))
    right_cols = columns(("rk", INT), ("rv", TEXT))
    join = MergeJoinExec(
        StaticRowsExec(left_rows, left_cols),
        StaticRowsExec(right_rows, right_cols),
        [left_cols[0].ref()],
        [right_cols[0].ref()],
        residual,
        left_cols + right_cols,
    )
    return drain(join, ctx()), left_cols, right_cols


class TestOperator:
    def test_basic_match(self):
        rows, _, _ = merge_join(
            [(1, "a"), (3, "c")], [(1, "x"), (2, "y"), (3, "z")]
        )
        assert rows == [(1, "a", 1, "x"), (3, "c", 3, "z")]

    def test_unsorted_inputs(self):
        rows, _, _ = merge_join(
            [(3, "c"), (1, "a")], [(3, "z"), (1, "x")]
        )
        assert sorted(rows) == [(1, "a", 1, "x"), (3, "c", 3, "z")]

    def test_many_to_many_duplicates(self):
        rows, _, _ = merge_join(
            [(1, "a"), (1, "b")], [(1, "x"), (1, "y")]
        )
        assert len(rows) == 4

    def test_null_keys_dropped(self):
        rows, _, _ = merge_join(
            [(None, "a"), (1, "b")], [(None, "x"), (1, "y")]
        )
        assert rows == [(1, "b", 1, "y")]

    def test_residual_predicate(self):
        left_cols = columns(("lk", INT), ("lv", INT))
        right_cols = columns(("rk", INT), ("rv", INT))
        residual = ast.BinaryOp("<", left_cols[1].ref(), right_cols[1].ref())
        join = MergeJoinExec(
            StaticRowsExec([(1, 10), (1, 99)], left_cols),
            StaticRowsExec([(1, 50)], right_cols),
            [left_cols[0].ref()],
            [right_cols[0].ref()],
            residual,
            left_cols + right_cols,
        )
        assert drain(join, ctx()) == [(1, 10, 1, 50)]

    def test_empty_side(self):
        rows, _, _ = merge_join([], [(1, "x")])
        assert rows == []


class TestEndToEnd:
    QUERIES = [
        "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id",
        "SELECT c.region, COUNT(*) FROM customers c JOIN orders o "
        "ON c.id = o.cust_id GROUP BY c.region",
        "SELECT a.name, b.name FROM customers a JOIN customers b "
        "ON a.region = b.region WHERE a.id < b.id",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_merge_equals_hash(self, sql):
        gis = make_small_gis()
        hash_rows = gis.query(sql, PlannerOptions(join_algorithm="hash")).rows
        merge_rows = gis.query(sql, PlannerOptions(join_algorithm="merge")).rows
        assert_same_rows(hash_rows, merge_rows)

    def test_merge_plan_uses_merge_join(self):
        gis = make_small_gis()
        planned = gis.plan(
            self.QUERIES[0], PlannerOptions(join_algorithm="merge")
        )
        assert "MergeJoin" in planned.physical.explain()

    def test_semi_joins_stay_hash_under_merge(self):
        gis = make_small_gis()
        planned = gis.plan(
            "SELECT name FROM customers WHERE id IN (SELECT cust_id FROM orders)",
            PlannerOptions(join_algorithm="merge"),
        )
        text = planned.physical.explain()
        assert "HashJoin(SEMI)" in text

    def test_invalid_algorithm_rejected(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            PlannerOptions(join_algorithm="quantum")
