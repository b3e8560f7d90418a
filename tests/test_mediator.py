"""The GlobalInformationSystem facade: registration, ANALYZE, EXPLAIN, querying."""

import datetime
import re

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
)
from repro.catalog.schema import schema_from_pairs
from repro.errors import (
    BindError,
    CatalogError,
    UnknownObjectError,
)

from .conftest import ORDERS, make_small_gis
from .reference import reference_query


class TestRegistration:
    def test_register_table_derives_schema(self, small_gis):
        entry = small_gis.catalog.table("orders")
        assert entry.schema.column_names() == [
            "oid", "cust_id", "total", "odate", "status",
        ]
        assert entry.mapping.remote_table == "ORDERS"

    def test_register_table_unknown_native(self):
        gis = GlobalInformationSystem()
        gis.register_source("m", MemorySource("m"))
        with pytest.raises(UnknownObjectError):
            gis.register_table("ghost", source="m")

    def test_register_with_column_map_renames(self):
        gis = GlobalInformationSystem()
        source = MemorySource("m")
        native = schema_from_pairs("T", [("CID", "INT"), ("NM", "TEXT")])
        source.add_table("T", native, [(1, "x")])
        gis.register_source("m", source)
        gis.register_table(
            "people", source="m", remote_table="T",
            column_map={"person_id": "CID", "name": "NM"},
        )
        schema = gis.catalog.table("people").schema
        assert schema.column_names() == ["person_id", "name"]
        assert gis.query("SELECT person_id FROM people").rows == [(1,)]

    def test_register_with_explicit_schema_validation(self):
        gis = GlobalInformationSystem()
        source = MemorySource("m")
        source.add_table("T", schema_from_pairs("T", [("a", "INT")]), [])
        gis.register_source("m", source)
        with pytest.raises(CatalogError):
            gis.register_table(
                "t2", source="m", remote_table="T",
                schema=schema_from_pairs("t2", [("missing", "INT")]),
            )

    def test_register_all_tables(self):
        gis = GlobalInformationSystem()
        source = MemorySource("m")
        source.add_table("a", schema_from_pairs("a", [("x", "INT")]), [])
        source.add_table("b", schema_from_pairs("b", [("y", "INT")]), [])
        gis.register_source("m", source)
        registered = gis.register_all_tables("m")
        assert sorted(registered) == ["a", "b"]

    def test_source_link_configured(self):
        gis = GlobalInformationSystem()
        gis.register_source(
            "m", MemorySource("m"), link=NetworkLink(latency_ms=123.0)
        )
        assert gis.network.link_for("m").latency_ms == 123.0


class TestViews:
    def test_create_view_and_query(self, small_gis):
        small_gis.create_view(
            "big_orders", "SELECT * FROM orders WHERE total > 400"
        )
        result = small_gis.query("SELECT COUNT(*) FROM big_orders")
        assert result.scalar() == 2

    def test_invalid_view_rolls_back(self, small_gis):
        with pytest.raises(BindError):
            small_gis.create_view("bad", "SELECT ghost FROM orders")
        assert not small_gis.catalog.has_table("bad")

    def test_view_over_two_sources(self, small_gis):
        small_gis.create_view(
            "activity",
            "SELECT c.name AS who, o.total FROM customers c "
            "JOIN orders o ON c.id = o.cust_id",
        )
        result = small_gis.query(
            "SELECT who, SUM(total) FROM activity GROUP BY who ORDER BY who"
        )
        assert result.rows[0][0] == "Alice"


class TestAnalyze:
    def test_analyze_collects_statistics(self, small_gis):
        stats = small_gis.catalog.statistics("orders")
        assert stats is not None and stats.row_count == 7
        assert stats.column("total").min_value == 10.0

    def test_analyze_subset(self):
        gis = make_small_gis()
        gis.catalog.clear_statistics()
        collected = gis.analyze(tables=["customers"])
        assert set(collected) == {"customers"}
        assert gis.catalog.statistics("orders") is None

    def test_analyze_skips_views(self, small_gis):
        small_gis.create_view("v", "SELECT * FROM orders")
        collected = small_gis.analyze()
        assert "v" not in collected


class TestQueryResults:
    def test_column_names_preserved(self, small_gis):
        result = small_gis.query("SELECT name AS who, balance FROM customers")
        assert result.column_names == ["who", "balance"]

    def test_scalar_helpers(self, small_gis):
        assert small_gis.query("SELECT COUNT(*) FROM customers").scalar() == 5
        with pytest.raises(ValueError):
            small_gis.query("SELECT id, name FROM customers").scalar()

    def test_first_on_empty(self, small_gis):
        result = small_gis.query("SELECT id FROM customers WHERE id > 100")
        assert result.first() is None

    def test_to_dicts(self, small_gis):
        rows = small_gis.query(
            "SELECT name FROM customers WHERE id = 1"
        ).to_dicts()
        assert rows == [{"name": "Alice"}]

    def test_format_table_truncates(self, small_gis):
        text = small_gis.query("SELECT id FROM customers").format_table(max_rows=2)
        assert "more rows" in text

    def test_iteration_and_len(self, small_gis):
        result = small_gis.query("SELECT id FROM customers")
        assert len(result) == 5
        assert len(list(result)) == 5

    def test_metrics_summary_text(self, small_gis):
        result = small_gis.query("SELECT id FROM customers")
        summary = result.metrics.summary()
        assert "rows" in summary and "simulated" in summary

    def test_dates_round_trip(self, small_gis):
        result = small_gis.query(
            "SELECT since FROM customers WHERE id = 1"
        )
        assert result.scalar() == datetime.date(1987, 4, 1)


class TestExplain:
    def test_explain_sections(self, small_gis):
        text = small_gis.explain(
            "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id "
            "WHERE o.total > 100"
        )
        assert "== distributed plan ==" in text
        assert "== physical plan ==" in text
        assert "== fragment SQL ==" in text
        assert "[erp]" in text

    def test_plan_object_inspection(self, small_gis):
        planned = small_gis.plan("SELECT COUNT(*) FROM orders")
        assert planned.planning_ms >= 0
        assert planned.output_names == ["count"]


class TestReferenceQuery:
    def test_reference_matches_engine(self, small_gis):
        sql = (
            "SELECT c.region, COUNT(*) AS n FROM customers c "
            "JOIN orders o ON c.id = o.cust_id GROUP BY c.region"
        )
        engine = small_gis.query(sql)
        names, reference = reference_query(small_gis, sql)
        assert names == engine.column_names
        assert sorted(engine.rows, key=repr) == sorted(reference, key=repr)


class TestOptionBaselines:
    SQL = (
        "SELECT c.name, SUM(o.total) AS t FROM customers c "
        "JOIN orders o ON c.id = o.cust_id WHERE o.total > 50 "
        "GROUP BY c.name ORDER BY t DESC"
    )

    def test_naive_options_equal_rows(self):
        from repro import NAIVE_OPTIONS

        smart = make_small_gis().query(self.SQL)
        naive = make_small_gis().query(self.SQL, NAIVE_OPTIONS)
        assert smart.rows == naive.rows

    def test_all_option_combinations_agree(self):
        reference = None
        for pushdown in ("full", "scans-only"):
            for join_strategy in ("dp", "greedy", "canonical"):
                options = PlannerOptions(
                    pushdown=pushdown, join_strategy=join_strategy
                )
                rows = make_small_gis().query(self.SQL, options).rows
                if reference is None:
                    reference = rows
                assert rows == reference, (pushdown, join_strategy)


class TestAnalyzeSampling:
    def test_sample_limits_scanned_rows_but_scales_count(self):
        gis = make_small_gis()
        gis.catalog.clear_statistics()
        collected = gis.analyze(tables=["orders"], sample_rows=3)
        stats = collected["orders"]
        # Row count comes from source metadata, not the truncated sample.
        assert stats.row_count == 7
        # Histograms summarize only the sampled prefix.
        total_histogram_rows = stats.column("total").histogram.total_rows
        assert total_histogram_rows == 3

    def test_sample_larger_than_table_is_exact(self):
        gis = make_small_gis()
        collected = gis.analyze(tables=["customers"], sample_rows=999)
        assert collected["customers"].row_count == 5

    def test_sampled_stats_still_drive_plans(self):
        gis = make_small_gis()
        gis.catalog.clear_statistics()
        gis.analyze(sample_rows=2)
        result = gis.query(
            "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        names, reference = reference_query(
            gis, "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert sorted(result.rows) == sorted(reference)


class TestExplainAnalyze:
    def test_reports_actual_rows_per_operator(self, small_gis):
        text = small_gis.explain_analyze(
            "SELECT c.region, COUNT(*) FROM customers c "
            "JOIN orders o ON c.id = o.cust_id WHERE o.total > 50 "
            "GROUP BY c.region"
        )
        assert "actual rows" in text
        assert re.search(
            r"Exchange\(source=crm\)  \[5 rows / 1 batches / [\d.]+ ms\]", text
        )
        assert re.search(
            r"HashJoin\(INNER\)  \[4 rows / 1 batches / [\d.]+ ms\]", text
        )
        assert "result rows: 2" in text

    def test_charges_the_network(self, small_gis):
        before = small_gis.network.total.messages
        small_gis.explain_analyze("SELECT COUNT(*) FROM customers")
        assert small_gis.network.total.messages > before

    def test_plain_explain_not_instrumented(self, small_gis):
        text = small_gis.explain("SELECT COUNT(*) FROM customers")
        assert "[5 rows]" not in text


class TestPlanCacheKeys:
    def test_prepared_replan_is_keyed_by_the_options_it_planned_with(self):
        # A prepared statement replanned under other planning options stores
        # that plan under those options; an implicit query with the default
        # options must not rebind it.
        from repro.obs.trace import NULL_SPAN, NULL_TRACER

        gis = make_small_gis()
        gis.plan_cache.capacity = 64
        sql = "SELECT name FROM customers WHERE balance > 10"
        statement = gis.prepare(sql)
        gis.plan_cache.invalidate()  # the pinned plan goes stale: execute replans
        statement.execute(options=PlannerOptions(pushdown="scans-only"))
        planned, _hit = gis._plan_for_query(sql, None, NULL_TRACER, NULL_SPAN)
        assert planned.explain() == gis.planner.plan(sql).explain()
