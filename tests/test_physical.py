"""Physical operators: join kinds, NULL-aware anti joins, exchanges, metrics."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, PlannerOptions, SimulatedNetwork
from repro.core.logical import RelColumn
from repro.core.physical import (
    DistinctExec,
    ExecutionContext,
    FilterExec,
    HashJoinExec,
    LimitExec,
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

    def test_residual_predicate_left_outer(self):
        # A left row whose key matches but whose every match fails the
        # residual is padded with NULLs, not dropped.
        left_cols = columns(("lk", INT), ("lv", INT))
        right_cols = columns(("rk", INT), ("rv", INT))
        residual = ast.BinaryOp("<", left_cols[1].ref(), right_cols[1].ref())
        join = HashJoinExec(
            static([(1, 10), (1, 99)], left_cols),
            static([(1, 50)], right_cols),
            "LEFT",
            [left_cols[0].ref()],
            [right_cols[0].ref()],
            residual,
            left_cols + right_cols,
        )
        assert drain(join, ctx()) == [(1, 10, 1, 50), (1, 99, None, None)]

    def test_right_only_keys_dropped(self):
        join, _, _ = make_join(
            "INNER", [(1, "a"), (3, "c")], [(1, "x"), (2, "y"), (3, "z")]
        )
        assert drain(join, ctx()) == [(1, "a", 1, "x"), (3, "c", 3, "z")]

    def test_empty_right_left_join(self):
        join, _, _ = make_join("LEFT", [(1, "a")], [])
        assert drain(join, ctx()) == [(1, "a", None, None)]

    def test_unsorted_inputs(self):
        join, _, _ = make_join("INNER", [(3, "c"), (1, "a")], [(3, "z"), (1, "x")])
        assert drain(join, ctx()) == [(3, "c", 3, "z"), (1, "a", 1, "x")]

    def test_many_to_many_duplicates(self):
        join, _, _ = make_join("INNER", [(1, "a"), (1, "b")], [(1, "x"), (1, "y")])
        # Left order first, then build order within each left row.
        assert drain(join, ctx()) == [
            (1, "a", 1, "x"), (1, "a", 1, "y"), (1, "b", 1, "x"), (1, "b", 1, "y")
        ]

    def test_null_keys_dropped(self):
        join, _, _ = make_join(
            "INNER", [(None, "a"), (1, "b")], [(None, "x"), (1, "y")]
        )
        assert drain(join, ctx()) == [(1, "b", 1, "y")]

    def test_compound_key(self):
        left_cols = columns(("a", INT), ("b", INT))
        right_cols = columns(("c", INT), ("d", INT))
        join = HashJoinExec(
            static([(1, 1), (1, 2), (None, 1), (2, 2)], left_cols),
            static([(1, 2), (1, None), (2, 2), (1, 2)], right_cols),
            "INNER",
            [left_cols[0].ref(), left_cols[1].ref()],
            [right_cols[0].ref(), right_cols[1].ref()],
            None,
            left_cols + right_cols,
        )
        assert drain(join, ctx()) == [(1, 2, 1, 2), (1, 2, 1, 2), (2, 2, 2, 2)]


class TestNestedLoopJoin:
    def test_non_equi_inner(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("<", left_cols[0].ref(), right_cols[0].ref())
        join = HashJoinExec(
            static([(1,), (5,)], left_cols),
            static([(3,), (6,)], right_cols),
            "INNER",
            [],
            [],
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx())) == [(1, 3), (1, 6), (5, 6)]

    def test_exists_semi_with_no_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = HashJoinExec(
            static([(1,), (2,)], left_cols),
            static([(9,)], right_cols),
            "SEMI",
            [],
            [],
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,), (2,)]

    def test_not_exists_with_empty_right(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = HashJoinExec(
            static([(1,)], left_cols),
            static([], right_cols),
            "ANTI",
            [],
            [],
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,)]

    def test_left_with_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("=", left_cols[0].ref(), right_cols[0].ref())
        join = HashJoinExec(
            static([(1,), (2,)], left_cols),
            static([(1,)], right_cols),
            "LEFT",
            [],
            [],
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx()), key=repr) == sorted(
            [(1, 1), (2, None)], key=repr
        )


JOIN_KINDS = ("INNER", "CROSS", "LEFT", "SEMI", "ANTI")
JOIN_INPUT_COLUMNS = 3  # two key columns and one value column per side
maybe_int = st.one_of(st.none(), st.integers(0, 3))
join_rows = st.lists(
    st.tuples(maybe_int, maybe_int, maybe_int), max_size=12
)


def reference_join(kind, left_rows, right_rows, keys, residual, null_aware):
    """Plain nested loops over row tuples: the join's SQL semantics."""

    def has_null(key):
        return any(part is None for part in key)

    def passes(left_row, right_row):
        left_key, right_key = left_row[:keys], right_row[:keys]
        if has_null(left_key) or has_null(right_key) or left_key != right_key:
            return False
        if residual is None:
            return True
        lv, rv = left_row[2], right_row[2]
        return lv is not None and rv is not None and residual(lv, rv)

    if kind == "ANTI" and null_aware:
        if not keys:
            # A keyless NOT IN keeps a left row only if every comparison
            # is FALSE; an unknown (NULL) one drops it like a TRUE one.
            def false(left_row, right_row):
                lv, rv = left_row[2], right_row[2]
                if residual is None or lv is None or rv is None:
                    return False
                return not residual(lv, rv)

            return [
                left_row
                for left_row in left_rows
                if all(false(left_row, right_row) for right_row in right_rows)
            ]
        if any(has_null(row[:keys]) for row in right_rows):
            return []  # x NOT IN (..., NULL, ...) is never TRUE
    out = []
    for left_row in left_rows:
        matches = [r for r in right_rows if passes(left_row, r)]
        if kind in ("INNER", "CROSS"):
            out.extend(left_row + r for r in matches)
        elif kind == "LEFT":
            out.extend(left_row + r for r in matches)
            if not matches:
                out.append(left_row + (None,) * JOIN_INPUT_COLUMNS)
        elif kind == "SEMI":
            if matches:
                out.append(left_row)
        elif not matches:
            if null_aware and right_rows and has_null(left_row[:keys]):
                continue  # NULL NOT IN (non-empty set) is never TRUE
            out.append(left_row)
    return out


RESIDUALS = {None: None, "<": lambda a, b: a < b, ">=": lambda a, b: a >= b}


class TestOneJoinOneOrder:
    """Every kind, with or without keys and a residual, at every batch size:
    the rows of a plain nested loop, in its order, in pages that never
    exceed the batch size."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(JOIN_KINDS),
        keys=st.sampled_from([0, 1, 2]),
        residual=st.sampled_from(sorted(RESIDUALS, key=repr)),
        null_aware=st.booleans(),
        left_rows=join_rows,
        right_rows=join_rows,
        batch_size=st.sampled_from([1, 7, 1024]),
    )
    # A keyless join whose right side outgrows the batch: the probe slices.
    @example(
        kind="INNER", keys=0, residual=None, null_aware=False,
        left_rows=[(i, i, i) for i in range(5)],
        right_rows=[(i, i, i) for i in range(10)], batch_size=7,
    )
    @example(
        kind="LEFT", keys=0, residual="<", null_aware=False,
        left_rows=[(i, i, i) for i in range(9)],
        right_rows=[(i, i, i) for i in range(8)], batch_size=7,
    )
    # NOT IN with a residual: a NULL probe key meets a NULL-free build side.
    @example(
        kind="ANTI", keys=1, residual="<", null_aware=True,
        left_rows=[(None, 0, 1), (1, 0, 5), (2, 0, 0)],
        right_rows=[(1, 0, 3), (2, 0, 9)], batch_size=7,
    )
    def test_matches_a_nested_loop(
        self, kind, keys, residual, null_aware, left_rows, right_rows, batch_size
    ):
        if kind == "CROSS":
            keys = 0
        null_aware = null_aware and kind == "ANTI"
        left_cols = columns(("l1", INT), ("l2", INT), ("lv", INT))
        right_cols = columns(("r1", INT), ("r2", INT), ("rv", INT))
        condition = (
            ast.BinaryOp(residual, left_cols[2].ref(), right_cols[2].ref())
            if residual is not None
            else None
        )
        out = left_cols + right_cols if kind in ("INNER", "CROSS", "LEFT") else left_cols
        join = HashJoinExec(
            static(left_rows, left_cols),
            static(right_rows, right_cols),
            kind,
            [c.ref() for c in left_cols[:keys]],
            [c.ref() for c in right_cols[:keys]],
            condition,
            out,
            null_aware,
        )
        pages = list(
            join.iterate_batches(
                ExecutionContext(
                    Catalog(), SimulatedNetwork(),
                    PlannerOptions(batch_size=batch_size),
                )
            )
        )
        assert all(len(page) <= batch_size for page in pages)
        rows = [row for page in pages for row in page]
        assert rows == reference_join(
            kind, left_rows, right_rows, keys, RESIDUALS[residual], null_aware
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
