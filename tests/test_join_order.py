"""Join ordering: DP vs greedy vs canonical on chain and star shapes."""

import pytest

from repro import Catalog, MemorySource, SimulatedNetwork, TableMapping
from repro.catalog.schema import schema_from_pairs
from repro.catalog.statistics import TableStatistics
from repro.core.analyzer import Analyzer
from repro.core.cardinality import Estimator
from repro.core.cost import CostModel
from repro.core.join_order import JoinOrderer
from repro.core.logical import JoinOp, ScanOp
from repro.core.rewriter import rewrite
from repro.errors import PlanError
from repro.sql.parser import parse_select

from .reference import interpret_plan


def build_catalog(sizes):
    """Tables f (fact), d1..dn (dims); f has one FK column per dimension."""
    catalog = Catalog()
    source = MemorySource("mem")
    fact_columns = [("id", "INT")] + [
        (f"fk{i}", "INT") for i in range(1, len(sizes))
    ]
    fact_schema = schema_from_pairs("f", fact_columns)
    fact_rows = [
        tuple([row] + [row % sizes[i] for i in range(1, len(sizes))])
        for row in range(sizes[0])
    ]
    source.add_table("f", fact_schema, fact_rows)
    catalog.register_source("mem", source)
    catalog.register_table("f", fact_schema, TableMapping("mem", "f"))
    catalog.set_statistics("f", TableStatistics.from_rows(fact_schema, fact_rows, 8))
    for i in range(1, len(sizes)):
        name = f"d{i}"
        schema = schema_from_pairs(name, [("id", "INT"), ("v", "INT")])
        rows = [(k, k * 10) for k in range(sizes[i])]
        source.add_table(name, schema, rows)
        catalog.register_table(name, schema, TableMapping("mem", name))
        catalog.set_statistics(name, TableStatistics.from_rows(schema, rows, 8))
    return catalog


def make_orderer(catalog, strategy):
    estimator = Estimator(catalog)
    cost_model = CostModel(SimulatedNetwork(), estimator)
    return JoinOrderer(catalog, estimator, cost_model, strategy=strategy)


def star_query(dims):
    joins = " ".join(
        f"JOIN d{i} ON f.fk{i} = d{i}.id" for i in range(1, dims + 1)
    )
    return f"SELECT f.id FROM f {joins}"


def ordered_plan(catalog, sql, strategy):
    plan = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))
    return make_orderer(catalog, strategy).reorder(plan)


def rows_of(catalog, plan):
    source = catalog.source("mem")

    def provide(scan: ScanOp):
        return source.scan(scan.table.mapping.remote_table)

    return sorted(interpret_plan(plan, provide))


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["dp", "greedy", "canonical", "auto"])
    def test_all_strategies_preserve_semantics(self, strategy):
        catalog = build_catalog([200, 10, 5, 3])
        sql = star_query(3)
        baseline = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))
        reordered = ordered_plan(catalog, sql, strategy)
        assert rows_of(catalog, baseline) == rows_of(catalog, reordered)

    def test_unknown_strategy_rejected(self):
        catalog = build_catalog([10, 2])
        with pytest.raises(PlanError):
            make_orderer(catalog, "quantum")

    def test_canonical_keeps_textual_order(self):
        catalog = build_catalog([100, 5, 5])
        plan = ordered_plan(catalog, star_query(2), "canonical")
        joins = [n for n in plan.walk() if isinstance(n, JoinOp)]
        # Left-deep in textual order: ((f ⋈ d1) ⋈ d2)
        top = joins[0]
        scans_left = [
            n.table.name for n in top.left.walk() if isinstance(n, ScanOp)
        ]
        scans_right = [
            n.table.name for n in top.right.walk() if isinstance(n, ScanOp)
        ]
        assert scans_right == ["d2"] and scans_left == ["f", "d1"]

    def test_dp_stats_recorded(self):
        catalog = build_catalog([100, 5, 5, 5])
        estimator = Estimator(catalog)
        orderer = make_orderer(catalog, "dp")
        plan = rewrite(
            Analyzer(catalog).bind_statement(parse_select(star_query(3)))
        )
        orderer.reorder(plan)
        assert orderer.last_stats.strategy == "dp"
        assert orderer.last_stats.relations == 4
        assert orderer.last_stats.subsets_enumerated > 0

    def test_auto_falls_back_to_greedy_for_large_regions(self):
        catalog = build_catalog([50] + [3] * 12)
        estimator = Estimator(catalog)
        cost_model = CostModel(SimulatedNetwork(), estimator)
        orderer = JoinOrderer(catalog, estimator, cost_model, strategy="auto", dp_limit=6)
        plan = rewrite(
            Analyzer(catalog).bind_statement(parse_select(star_query(12)))
        )
        orderer.reorder(plan)
        assert orderer.last_stats.strategy == "greedy"

    def test_all_conditions_survive_reordering(self):
        catalog = build_catalog([100, 4, 4, 4])
        plan = ordered_plan(catalog, star_query(3), "dp")
        conditions = [
            n.condition for n in plan.walk() if isinstance(n, JoinOp)
        ]
        total_conjuncts = sum(
            len(list(_conjuncts(c))) for c in conditions if c is not None
        )
        assert total_conjuncts == 3

    def test_filters_attached_at_leaves_survive(self):
        catalog = build_catalog([100, 4, 4])
        sql = star_query(2) + " WHERE d1.v > 10"
        baseline = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))
        reordered = ordered_plan(catalog, sql, "dp")
        assert rows_of(catalog, baseline) == rows_of(catalog, reordered)


def _conjuncts(expr):
    from repro.sql import ast

    return ast.conjuncts(expr)


class TestCrossProducts:
    def test_disconnected_region_still_plans(self):
        catalog = build_catalog([20, 3])
        sql = "SELECT f.id FROM f, d1"
        for strategy in ("dp", "greedy", "canonical"):
            plan = ordered_plan(catalog, sql, strategy)
            joins = [n for n in plan.walk() if isinstance(n, JoinOp)]
            assert joins and joins[0].kind == "CROSS"

    def test_partially_connected(self):
        catalog = build_catalog([20, 3, 3])
        sql = "SELECT f.id FROM f JOIN d1 ON f.fk1 = d1.id CROSS JOIN d2"
        baseline = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))
        for strategy in ("dp", "greedy"):
            plan = ordered_plan(catalog, sql, strategy)
            assert rows_of(catalog, baseline) == rows_of(catalog, plan)


class TestPlanQualityOrdering:
    def test_dp_no_worse_than_canonical(self):
        """DP's estimated cost must never exceed the canonical order's."""
        catalog = build_catalog([500, 50, 4, 2])
        estimator = Estimator(catalog)
        cost_model = CostModel(SimulatedNetwork(), estimator)
        sql = star_query(3)
        bound = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))

        results = {}
        for strategy in ("dp", "canonical"):
            orderer = JoinOrderer(catalog, estimator, cost_model, strategy=strategy)
            plan = orderer.reorder(bound)
            # Measure real intermediate work: total rows produced by joins.
            results[strategy] = _join_work(catalog, plan)
        assert results["dp"] <= results["canonical"]


def _join_work(catalog, plan):
    """Total rows flowing out of every join when actually executed."""
    source = catalog.source("mem")

    def provide(scan: ScanOp):
        return source.scan(scan.table.mapping.remote_table)

    total = 0
    for node in plan.walk():
        if isinstance(node, JoinOp):
            total += len(list(interpret_plan(node, provide)))
    return total
