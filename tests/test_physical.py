"""Physical operators: join kinds, NULL-aware anti joins, exchanges, metrics."""

from repro import Catalog, PlannerOptions, SimulatedNetwork
from repro.core.logical import RelColumn
from repro.core.physical import (
    DistinctExec,
    ExecutionContext,
    FilterExec,
    HashJoinExec,
    LimitExec,
    NestedLoopJoinExec,
    ProjectExec,
    SetDifferenceExec,
    SortExec,
    StaticRowsExec,
    UnionExec,
    _row_bytes,
)
from repro.datatypes import DataType
from repro.sql import ast

from .conftest import drain


def ctx():
    return ExecutionContext(Catalog(), SimulatedNetwork(), PlannerOptions())


def columns(*specs):
    return [RelColumn(name, dtype) for name, dtype in specs]


def static(rows, cols):
    return StaticRowsExec(rows, cols)


INT = DataType.INTEGER
TEXT = DataType.TEXT


class TestRowBytes:
    def test_value_widths(self):
        import datetime

        row = (None, True, 7, 1.5, "abc", datetime.date(1989, 1, 1))
        assert _row_bytes(row) == 1 + 1 + 8 + 8 + 3 + 4


class TestScalarOperators:
    def test_filter(self):
        cols = columns(("a", INT))
        op = FilterExec(
            static([(1,), (5,), (None,)], cols),
            ast.BinaryOp(">", cols[0].ref(), ast.Literal(2, INT)),
        )
        assert drain(op, ctx()) == [(5,)]

    def test_project(self):
        cols = columns(("a", INT))
        op = ProjectExec(
            static([(2,), (3,)], cols),
            [ast.BinaryOp("*", cols[0].ref(), ast.Literal(10, INT))],
            columns(("x", INT)),
        )
        assert drain(op, ctx()) == [(20,), (30,)]

    def test_limit_and_offset(self):
        cols = columns(("a", INT))
        op = LimitExec(static([(i,) for i in range(10)], cols), 3, 2)
        assert drain(op, ctx()) == [(2,), (3,), (4,)]

    def test_distinct(self):
        cols = columns(("a", INT))
        op = DistinctExec(static([(1,), (1,), (2,)], cols))
        assert drain(op, ctx()) == [(1,), (2,)]

    def test_sort(self):
        cols = columns(("a", INT))
        op = SortExec(
            static([(3,), (1,), (None,)], cols), [(cols[0].ref(), True)]
        )
        assert drain(op, ctx()) == [(1,), (3,), (None,)]

    def test_union(self):
        cols = columns(("a", INT))
        op = UnionExec(
            [static([(1,)], cols), static([(2,)], cols)], cols
        )
        assert drain(op, ctx()) == [(1,), (2,)]

    def test_set_difference_except_and_intersect(self):
        cols = columns(("a", INT))
        left = static([(1,), (2,), (2,), (3,)], cols)
        right = static([(2,)], cols)
        except_op = SetDifferenceExec(left, right, "EXCEPT", cols)
        assert drain(except_op, ctx()) == [(1,), (3,)]
        intersect_op = SetDifferenceExec(
            static([(1,), (2,), (2,)], cols), static([(2,), (9,)], cols),
            "INTERSECT", cols,
        )
        assert drain(intersect_op, ctx()) == [(2,)]


def make_join(kind, left_rows, right_rows, null_aware=False, residual=None):
    left_cols = columns(("lk", INT), ("lv", TEXT))
    right_cols = columns(("rk", INT), ("rv", TEXT))
    out = left_cols + right_cols if kind in ("INNER", "LEFT") else left_cols
    return HashJoinExec(
        static(left_rows, left_cols),
        static(right_rows, right_cols),
        kind,
        [left_cols[0].ref()],
        [right_cols[0].ref()],
        residual,
        out,
        null_aware,
    ), left_cols, right_cols


class TestHashJoin:
    LEFT = [(1, "a"), (2, "b"), (None, "n"), (3, "c")]
    RIGHT = [(1, "x"), (1, "y"), (3, "z"), (None, "w")]

    def test_inner(self):
        join, _, _ = make_join("INNER", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        assert sorted(rows) == [
            (1, "a", 1, "x"), (1, "a", 1, "y"), (3, "c", 3, "z")
        ]

    def test_left_outer(self):
        join, _, _ = make_join("LEFT", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        assert (2, "b", None, None) in rows
        assert (None, "n", None, None) in rows
        assert len(rows) == 5

    def test_semi(self):
        join, _, _ = make_join("SEMI", self.LEFT, self.RIGHT)
        assert sorted(drain(join, ctx())) == [(1, "a"), (3, "c")]

    def test_anti_not_exists_semantics(self):
        join, _, _ = make_join("ANTI", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        # NULL probe key has no match → kept (NOT EXISTS semantics).
        assert sorted(rows, key=repr) == sorted(
            [(2, "b"), (None, "n")], key=repr
        )

    def test_anti_null_aware_right_null_kills_all(self):
        join, _, _ = make_join("ANTI", self.LEFT, self.RIGHT, null_aware=True)
        assert drain(join, ctx()) == []

    def test_anti_null_aware_without_right_nulls(self):
        right = [(1, "x"), (3, "z")]
        join, _, _ = make_join("ANTI", self.LEFT, right, null_aware=True)
        rows = drain(join, ctx())
        # NULL probe key: NULL NOT IN (1,3) is NULL → dropped.
        assert rows == [(2, "b")]

    def test_residual_predicate(self):
        left_cols = columns(("lk", INT), ("lv", INT))
        right_cols = columns(("rk", INT), ("rv", INT))
        residual = ast.BinaryOp("<", left_cols[1].ref(), right_cols[1].ref())
        join = HashJoinExec(
            static([(1, 10), (1, 99)], left_cols),
            static([(1, 50)], right_cols),
            "INNER",
            [left_cols[0].ref()],
            [right_cols[0].ref()],
            residual,
            left_cols + right_cols,
        )
        assert drain(join, ctx()) == [(1, 10, 1, 50)]

    def test_empty_right_left_join(self):
        join, _, _ = make_join("LEFT", [(1, "a")], [])
        assert drain(join, ctx()) == [(1, "a", None, None)]


class TestNestedLoopJoin:
    def test_non_equi_inner(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("<", left_cols[0].ref(), right_cols[0].ref())
        join = NestedLoopJoinExec(
            static([(1,), (5,)], left_cols),
            static([(3,), (6,)], right_cols),
            "INNER",
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx())) == [(1, 3), (1, 6), (5, 6)]

    def test_exists_semi_with_no_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = NestedLoopJoinExec(
            static([(1,), (2,)], left_cols),
            static([(9,)], right_cols),
            "SEMI",
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,), (2,)]

    def test_not_exists_with_empty_right(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = NestedLoopJoinExec(
            static([(1,)], left_cols),
            static([], right_cols),
            "ANTI",
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,)]

    def test_left_with_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("=", left_cols[0].ref(), right_cols[0].ref())
        join = NestedLoopJoinExec(
            static([(1,), (2,)], left_cols),
            static([(1,)], right_cols),
            "LEFT",
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx()), key=repr) == sorted(
            [(1, 1), (2, None)], key=repr
        )


class TestExchangeMetrics:
    def test_exchange_pages_and_bytes(self, small_gis):
        result = small_gis.query("SELECT name FROM customers")
        metrics = result.metrics
        assert metrics.rows_shipped == 5
        assert metrics.messages >= 1
        assert metrics.bytes_shipped > 0
        assert metrics.network.fragments_executed == 1
        assert metrics.network.per_source_rows == {"crm": 5}

    def test_empty_result_still_costs_a_message(self, small_gis):
        result = small_gis.query("SELECT name FROM customers WHERE id > 999")
        assert result.rows == []
        assert result.metrics.messages >= 1

    def test_page_size_drives_message_count(self):
        from repro import GlobalInformationSystem, MemorySource
        from repro.catalog.schema import schema_from_pairs

        gis = GlobalInformationSystem()
        source = MemorySource("m")
        caps = source.capabilities().restricted(page_rows=10)
        source._capabilities = caps
        schema = schema_from_pairs("t", [("a", "INT")])
        source.add_table("t", schema, [(i,) for i in range(95)])
        gis.register_source("m", source)
        gis.register_table("t", source="m")
        result = gis.query("SELECT a FROM t")
        # 95 rows at 10/page → 9 full pages + final partial/empty page.
        assert result.metrics.messages == 10
