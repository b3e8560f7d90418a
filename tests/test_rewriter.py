"""Rewrite rules: structural assertions plus differential safety checks."""

import pytest

from repro import Catalog, MemorySource, TableMapping
from repro.catalog.schema import schema_from_pairs
from repro.core.analyzer import Analyzer
from repro.core.logical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    JoinOp,
    LimitOp,
    ProjectOp,
    ScanOp,
    UnionOp,
    ValuesOp,
)
from repro.core.rewriter import (
    fold_constants,
    fold_expression,
    push_down_limits,
    push_down_predicates,
    rewrite,
)
from repro.datatypes import DataType
from repro.sql import ast
from repro.sql.parser import parse_select

from .reference import interpret_plan

ROWS_T = [(i, f"n{i % 3}", float(i)) for i in range(20)]
ROWS_U = [(i, i % 5) for i in range(15)]


@pytest.fixture
def catalog():
    catalog = Catalog()
    source = MemorySource("mem")
    t_schema = schema_from_pairs("t", [("a", "INT"), ("b", "TEXT"), ("c", "FLOAT")])
    u_schema = schema_from_pairs("u", [("a", "INT"), ("k", "INT")])
    source.add_table("t", t_schema, ROWS_T)
    source.add_table("u", u_schema, ROWS_U)
    catalog.register_source("mem", source)
    catalog.register_table("t", t_schema, TableMapping("mem", "t"))
    catalog.register_table("u", u_schema, TableMapping("mem", "u"))
    return catalog


def bind(catalog, sql):
    return Analyzer(catalog).bind_statement(parse_select(sql))


def evaluate(catalog, plan):
    source = catalog.source("mem")

    def provide(scan: ScanOp):
        return source.scan(scan.table.mapping.remote_table)

    return sorted(interpret_plan(plan, provide), key=repr)


def assert_equivalent(catalog, before, after):
    assert evaluate(catalog, before) == evaluate(catalog, after)


class TestConstantFolding:
    def expr(self, text):
        return parse_select(f"SELECT {text}").items[0].expr

    def test_folds_arithmetic(self):
        folded = fold_expression(self.expr("1 + 2 * 3"))
        assert folded == ast.Literal(7, DataType.INTEGER)

    def test_folds_inside_composite(self, catalog):
        plan = bind(catalog, "SELECT a FROM t WHERE a > 1 + 2")
        folded = fold_constants(plan)
        (filter_op,) = [n for n in folded.walk() if isinstance(n, FilterOp)]
        assert ast.Literal(3, DataType.INTEGER) in ast.expression_children(
            filter_op.predicate
        )

    def test_does_not_fold_column_refs(self, catalog):
        plan = bind(catalog, "SELECT a + 1 FROM t")
        folded = fold_constants(plan)
        (project,) = [
            n
            for n in folded.walk()
            if isinstance(n, ProjectOp) and not n.is_trivial()
        ]
        assert isinstance(project.expressions[0], ast.BinaryOp)

    def test_failing_cast_left_for_runtime(self):
        expr = ast.Cast(ast.Literal("zebra", DataType.TEXT), DataType.INTEGER)
        assert fold_expression(expr) is expr or isinstance(
            fold_expression(expr), ast.Cast
        )

    def test_folds_boolean_logic(self):
        folded = fold_expression(self.expr("1 = 1 AND 2 < 1"))
        assert folded == ast.Literal(False, DataType.BOOLEAN)


class TestFilterSimplification:
    def test_true_filter_removed(self, catalog):
        plan = bind(catalog, "SELECT a FROM t WHERE 1 = 1")
        simplified = rewrite(plan)
        assert not [n for n in simplified.walk() if isinstance(n, FilterOp)]

    def test_false_filter_becomes_empty_values(self, catalog):
        plan = bind(catalog, "SELECT a FROM t WHERE 1 = 2")
        simplified = rewrite(plan)
        values = [n for n in simplified.walk() if isinstance(n, ValuesOp)]
        assert values and values[0].rows == []
        assert evaluate(catalog, simplified) == []

    def test_null_filter_becomes_empty(self, catalog):
        plan = bind(catalog, "SELECT a FROM t WHERE NULL")
        simplified = rewrite(plan)
        assert evaluate(catalog, simplified) == []


class TestPredicatePushdown:
    def test_filter_reaches_scan_through_join(self, catalog):
        plan = bind(
            catalog,
            "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.c > 5 AND u.k = 1",
        )
        pushed = push_down_predicates(plan)
        # Each single-side conjunct must now sit directly above its scan.
        filters = [n for n in pushed.walk() if isinstance(n, FilterOp)]
        assert all(isinstance(f.child, ScanOp) for f in filters)
        assert_equivalent(catalog, plan, pushed)

    def test_cross_join_with_where_becomes_inner(self, catalog):
        plan = bind(catalog, "SELECT t.a FROM t, u WHERE t.a = u.a")
        pushed = push_down_predicates(plan)
        (join,) = [n for n in pushed.walk() if isinstance(n, JoinOp)]
        assert join.kind == "INNER" and join.condition is not None
        assert_equivalent(catalog, plan, pushed)

    def test_pushdown_through_projection_rewrites_refs(self, catalog):
        plan = bind(
            catalog,
            "SELECT x FROM (SELECT a + 1 AS x FROM t) s WHERE x > 10",
        )
        pushed = push_down_predicates(plan)
        filters = [n for n in pushed.walk() if isinstance(n, FilterOp)]
        assert filters and isinstance(filters[0].child, ScanOp)
        assert_equivalent(catalog, plan, pushed)

    def test_pushdown_into_union_branches(self, catalog):
        plan = bind(
            catalog,
            "SELECT a FROM (SELECT a FROM t UNION ALL SELECT a FROM u) s "
            "WHERE a > 7",
        )
        pushed = rewrite(plan)
        union_nodes = [n for n in pushed.walk() if isinstance(n, UnionOp)]
        assert union_nodes
        for branch in union_nodes[0].inputs:
            branch_filters = [
                n for n in branch.walk() if isinstance(n, FilterOp)
            ]
            assert branch_filters
        assert_equivalent(catalog, plan, pushed)

    def test_group_key_filter_passes_aggregate(self, catalog):
        plan = bind(
            catalog,
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING b <> 'n0'",
        )
        pushed = rewrite(plan)
        (aggregate,) = [n for n in pushed.walk() if isinstance(n, AggregateOp)]
        below = [n for n in aggregate.child.walk() if isinstance(n, FilterOp)]
        assert below  # the HAVING on a group key sank below the aggregate
        assert_equivalent(catalog, plan, pushed)

    def test_aggregate_filter_stays_above(self, catalog):
        plan = bind(
            catalog,
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 5",
        )
        pushed = rewrite(plan)
        (aggregate,) = [n for n in pushed.walk() if isinstance(n, AggregateOp)]
        below = [n for n in aggregate.child.walk() if isinstance(n, FilterOp)]
        assert not below
        assert_equivalent(catalog, plan, pushed)

    def test_left_join_right_filter_not_pushed(self, catalog):
        plan = bind(
            catalog,
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.k = 1",
        )
        pushed = push_down_predicates(plan)
        assert_equivalent(catalog, plan, pushed)

    def test_left_join_left_filter_pushed(self, catalog):
        plan = bind(
            catalog,
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE t.c > 3",
        )
        pushed = push_down_predicates(plan)
        (join,) = [n for n in pushed.walk() if isinstance(n, JoinOp)]
        left_filters = [n for n in join.left.walk() if isinstance(n, FilterOp)]
        assert left_filters
        assert_equivalent(catalog, plan, pushed)


class TestProjectionPruning:
    def test_scan_narrowed(self, catalog):
        plan = bind(catalog, "SELECT b FROM t")
        pruned = rewrite(plan)
        scans = [n for n in pruned.walk() if isinstance(n, ScanOp)]
        projects = [n for n in pruned.walk() if isinstance(n, ProjectOp)]
        assert scans
        narrowing = [
            p for p in projects if isinstance(p.child, ScanOp) and len(p.columns) == 1
        ]
        assert narrowing
        assert_equivalent(catalog, plan, pruned)

    def test_join_inputs_narrowed(self, catalog):
        plan = bind(
            catalog, "SELECT t.b FROM t JOIN u ON t.a = u.a"
        )
        pruned = rewrite(plan)
        (join,) = [n for n in pruned.walk() if isinstance(n, JoinOp)]
        assert len(join.left.output_columns) == 2  # a (join key) + b
        assert len(join.right.output_columns) == 1  # a only
        assert_equivalent(catalog, plan, pruned)

    def test_unused_aggregate_calls_dropped(self, catalog):
        plan = bind(
            catalog,
            "SELECT n FROM (SELECT b, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY b) q",
        )
        pruned = rewrite(plan)
        (aggregate,) = [n for n in pruned.walk() if isinstance(n, AggregateOp)]
        assert len(aggregate.aggregates) == 1
        assert_equivalent(catalog, plan, pruned)

    def test_distinct_blocks_pruning(self, catalog):
        plan = bind(
            catalog, "SELECT a FROM (SELECT DISTINCT a, b FROM t) q"
        )
        pruned = rewrite(plan)
        (distinct,) = [n for n in pruned.walk() if isinstance(n, DistinctOp)]
        assert len(distinct.child.output_columns) == 2
        assert_equivalent(catalog, plan, pruned)


class TestMergesAndLimits:
    def test_adjacent_projects_merge(self, catalog):
        plan = bind(catalog, "SELECT x + 1 FROM (SELECT a + 1 AS x FROM t) s")
        merged = rewrite(plan)
        projects = [n for n in merged.walk() if isinstance(n, ProjectOp)]
        assert len(projects) == 1
        assert_equivalent(catalog, plan, merged)

    def test_nested_limits_merge(self, catalog):
        plan = bind(
            catalog, "SELECT a FROM (SELECT a FROM t LIMIT 10) s LIMIT 3"
        )
        merged = rewrite(plan)
        limits = [n for n in merged.walk() if isinstance(n, LimitOp)]
        assert len(limits) == 1 and limits[0].limit == 3
        assert_equivalent(catalog, plan, merged)

    def test_limit_pushed_into_union_all(self, catalog):
        plan = bind(
            catalog,
            "SELECT a FROM (SELECT a FROM t UNION ALL SELECT a FROM u) s LIMIT 4",
        )
        pushed = push_down_limits(rewrite(plan))
        union_nodes = [n for n in pushed.walk() if isinstance(n, UnionOp)]
        assert union_nodes
        for branch in union_nodes[0].inputs:
            assert isinstance(branch, LimitOp) and branch.limit == 4
        rows = evaluate(catalog, pushed)
        assert len(rows) == 4


class TestFullPipelineEquivalence:
    QUERIES = [
        "SELECT a, c FROM t WHERE a > 3 AND c < 15.0",
        "SELECT t.b, u.k FROM t JOIN u ON t.a = u.a WHERE u.k > 1",
        "SELECT b, COUNT(*), SUM(c) FROM t GROUP BY b ORDER BY b",
        "SELECT DISTINCT b FROM t WHERE a BETWEEN 2 AND 12",
        "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE k = 0)",
        "SELECT a + 1 AS q FROM t ORDER BY q DESC LIMIT 5",
        "SELECT a FROM t UNION SELECT a FROM u",
        "SELECT b FROM t WHERE NOT (a < 5 OR c > 15)",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rewrite_preserves_semantics(self, catalog, sql):
        plan = bind(catalog, sql)
        assert_equivalent(catalog, plan, rewrite(plan))


# ---------------------------------------------------------------------------
# transitive key predicates
# ---------------------------------------------------------------------------


def side_keys(plan, side):
    """Literals of ``column = literal`` filters on one side of the join."""
    (join,) = [n for n in plan.walk() if isinstance(n, JoinOp)]
    subtree = join.left if side == "left" else join.right
    return [
        conjunct.right
        for node in subtree.walk()
        if isinstance(node, FilterOp)
        for conjunct in ast.conjuncts(node.predicate)
        if isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.right, ast.Literal)
    ]


class TestTransitiveKeyPredicates:
    def test_inner_join_carries_the_key_with_its_slot(self, catalog):
        from repro.core.prepared import parameterize

        statement = parameterize(parse_select(
            "SELECT t.b, u.k FROM t JOIN u ON t.a = u.a WHERE t.a = 5"
        )).statement
        plan = Analyzer(catalog).bind_statement(statement)
        rewritten = rewrite(plan)
        (left,) = side_keys(rewritten, "left")
        (right,) = side_keys(rewritten, "right")
        assert left.value == right.value == 5
        assert left.param_slot == right.param_slot == 0
        assert_equivalent(catalog, plan, rewritten)

    def test_semi_join_carries_the_key_into_the_subquery(self, catalog):
        plan = bind(
            catalog,
            "SELECT a FROM (SELECT a FROM t WHERE a IN (SELECT a FROM u)) s "
            "WHERE a = 5",
        )
        rewritten = rewrite(plan)
        (join,) = [n for n in rewritten.walk() if isinstance(n, JoinOp)]
        assert join.kind == "SEMI"
        assert [key.value for key in side_keys(rewritten, "right")] == [5]
        assert_equivalent(catalog, plan, rewritten)

    @pytest.mark.parametrize("sql", [
        # the null-extended side of a LEFT join
        "SELECT t.a, u.k FROM t LEFT JOIN u ON t.a = u.a WHERE t.a = 5",
        # mismatched dtypes (FLOAT = INT)
        "SELECT t.a FROM t JOIN u ON t.c = u.a WHERE t.c = 5.0",
        # a NULL literal
        "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.a = NULL",
    ])
    def test_no_key_where_it_would_be_unsound(self, catalog, sql):
        plan = bind(catalog, sql)
        rewritten = rewrite(plan)
        assert side_keys(rewritten, "right") == []
        assert_equivalent(catalog, plan, rewritten)

    @pytest.mark.parametrize("subquery", [
        "a NOT IN (SELECT a FROM n)",
        "NOT EXISTS (SELECT 1 FROM n WHERE n.a = t.a)",
    ])
    def test_anti_join_with_a_null_key_gets_nothing(self, catalog, subquery):
        # n holds a NULL key, so NOT IN is empty; a carried n.a = 5 would
        # drop that NULL and wrongly let t's row 5 through.
        schema = schema_from_pairs("n", [("a", "INT")])
        catalog.source("mem").add_table("n", schema, [(7,), (None,)])
        catalog.register_table("n", schema, TableMapping("mem", "n"))
        plan = bind(
            catalog, f"SELECT a FROM (SELECT a FROM t WHERE {subquery}) s WHERE a = 5"
        )
        rewritten = rewrite(plan)
        assert side_keys(rewritten, "right") == []
        assert_equivalent(catalog, plan, rewritten)

    def test_rewriting_twice_adds_no_duplicate(self, catalog):
        plan = bind(
            catalog, "SELECT t.b, u.k FROM t JOIN u ON t.a = u.a WHERE t.a = 5"
        )
        twice = rewrite(rewrite(plan))
        assert len(side_keys(twice, "left")) == 1
        assert len(side_keys(twice, "right")) == 1
