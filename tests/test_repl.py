"""The interactive shell, driven through its stream interface."""

import io

from repro.config import build_from_config
from repro.repl import Repl

from .conftest import make_small_gis


def drive(*lines, naive=False):
    gis = make_small_gis()
    out = io.StringIO()
    repl = Repl(gis, out=out)
    repl.naive = naive
    repl.run(list(lines))
    return out.getvalue(), repl


class TestStatements:
    def test_simple_query(self):
        output, _ = drive("SELECT COUNT(*) FROM customers;")
        assert "5" in output and "rows" in output

    def test_multiline_statement(self):
        output, _ = drive(
            "SELECT name FROM customers",
            "WHERE id = 1;",
        )
        assert "Alice" in output

    def test_missing_semicolon_flushes_at_eof(self):
        output, _ = drive("SELECT COUNT(*) FROM orders")
        assert "7" in output

    def test_sql_error_reported_not_raised(self):
        output, _ = drive("SELECT ghost FROM customers;")
        assert "error:" in output

    def test_parse_error_reported(self):
        output, _ = drive("SELEKT 1;")
        assert "error:" in output

    def test_blank_lines_ignored(self):
        output, _ = drive("", "   ", "SELECT 1;")
        assert "error" not in output


class TestCommands:
    def test_tables(self):
        output, _ = drive("\\tables")
        assert "customers" in output and "crm" in output

    def test_tables_shows_views(self):
        gis = make_small_gis()
        gis.create_view("v", "SELECT id FROM customers")
        out = io.StringIO()
        Repl(gis, out=out).run(["\\tables"])
        assert "(view)" in out.getvalue()

    def test_sources_lists_capabilities(self):
        output, _ = drive("\\sources")
        assert "erp" in output and "joins" in output

    def test_schema_with_statistics(self):
        output, _ = drive("\\schema orders")
        assert "total" in output and "rows" in output

    def test_schema_unknown_table(self):
        output, _ = drive("\\schema ghost")
        assert "error:" in output

    def test_metrics_requires_query(self):
        output, _ = drive("\\metrics")
        assert "no query" in output

    def test_metrics_after_query(self):
        output, _ = drive("SELECT 1;", "\\metrics")
        assert "simulated" in output

    def test_explain(self):
        output, _ = drive("\\explain SELECT name FROM customers WHERE id = 1;")
        assert "distributed plan" in output

    def test_naive_toggle(self):
        output, repl = drive("\\naive on")
        assert "naive mode ON" in output and repl.naive
        output, repl = drive("\\naive")
        assert repl.naive  # toggled from default off

    def test_naive_mode_still_answers_correctly(self):
        output, _ = drive("\\naive on", "SELECT COUNT(*) FROM customers;")
        assert "5" in output

    def test_analyze(self):
        output, _ = drive("\\analyze")
        assert "analyzed 2 tables" in output

    def test_quit_stops_processing(self):
        output, _ = drive("\\quit", "SELECT 1;")
        assert "bye" in output
        assert "col" not in output  # the query never ran

    def test_unknown_command(self):
        output, _ = drive("\\frobnicate")
        assert "unknown command" in output

    def test_help(self):
        output, _ = drive("\\help")
        assert "\\tables" in output


class TestMainEntry:
    def test_demo_pipeline(self):
        import subprocess
        import sys

        process = subprocess.run(
            [sys.executable, "-m", "repro", "--demo", "--scale", "0.1"],
            input="SELECT COUNT(*) FROM regions;\n\\quit\n",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0
        assert "5" in process.stdout
        assert "bye" in process.stdout


class TestProfileCommand:
    def test_profile_runs_and_reports(self):
        output, _ = drive("\\profile SELECT COUNT(*) FROM customers;")
        assert "actual rows" in output and "result rows: 1" in output

    def test_profile_requires_query(self):
        output, _ = drive("\\profile")
        assert "usage" in output


class TestConfigEntry:
    def test_repl_from_json_config(self, tmp_path):
        import json
        import subprocess
        import sys

        config = {
            "sources": {
                "m": {
                    "type": "memory",
                    "tables": {
                        "t": {"columns": [["a", "INT"]], "rows": [[1], [2]]}
                    },
                }
            },
            "tables": [{"name": "t", "source": "m"}],
        }
        path = tmp_path / "fed.json"
        path.write_text(json.dumps(config))
        process = subprocess.run(
            [sys.executable, "-m", "repro", "--config", str(path)],
            input="SELECT COUNT(*) FROM t;\n\\quit\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 0
        assert "2" in process.stdout


class TestResilienceCommands:
    def test_health_lists_sources(self):
        output, _ = drive("\\health")
        assert "crm" in output and "erp" in output
        assert "breaker closed" in output
        assert "link" in output

    def test_health_shows_transfer_totals_after_query(self):
        output, _ = drive("SELECT COUNT(*) FROM customers;", "\\health")
        assert "shipped" in output and "messages" in output

    def test_health_shows_fault_counters(self):
        import io

        from repro import (
            FaultPlan,
            FaultSpec,
            GlobalInformationSystem,
            MemorySource,
        )
        from repro.catalog.schema import schema_from_pairs
        from repro.repl import Repl

        plan = FaultPlan.of(m=FaultSpec(fail_connect=99))
        gis = GlobalInformationSystem(faults=plan)
        source = MemorySource("m")
        source.add_table(
            "t", schema_from_pairs("t", [("a", "INT")]), [(1,), (2,)]
        )
        gis.register_source("m", source)
        gis.register_table("t", source="m")
        out = io.StringIO()
        Repl(gis, out=out).run(["SELECT a FROM t;", "\\health"])
        output = out.getvalue()
        assert "error:" in output  # the injected fault sank the query
        assert "faults 1/1 calls" in output

    def test_health_without_sources(self):
        import io

        from repro import GlobalInformationSystem
        from repro.repl import Repl

        out = io.StringIO()
        Repl(GlobalInformationSystem(), out=out).run(["\\health"])
        assert "no sources registered" in out.getvalue()

    def test_deadline_command(self):
        output, repl = drive("\\deadline 250")
        assert "250 ms" in output and repl.deadline_ms == 250.0
        output, repl = drive("\\deadline 250", "\\deadline off")
        assert "OFF" in output and repl.deadline_ms == 0.0
        output, _ = drive("\\deadline soon")
        assert "usage" in output

    def test_partial_command_toggles(self):
        output, repl = drive("\\partial on")
        assert "partial" in output and repl.partial
        output, repl = drive("\\partial on", "\\partial off")
        assert repl.partial is False
        _, repl = drive("\\partial")
        assert repl.partial  # bare command toggles from the default

    def test_partial_banner_on_degraded_result(self):
        import io

        from repro import FaultInjector, FaultPlan, FaultSpec
        from repro.repl import Repl

        gis = make_small_gis()
        plan = FaultPlan.of(erp=FaultSpec(fail_connect=99))
        gis.fault_injector = FaultInjector(plan)
        out = io.StringIO()
        repl = Repl(gis, out=out)
        repl.partial = True
        repl.run(["SELECT COUNT(*) FROM orders;"])
        output = out.getvalue()
        assert "PARTIAL RESULT" in output
        assert "erp" in output and "injected fault" in output
        assert "PARTIAL)" in output  # row-count footer carries the flag


def configured(*lines, **sections):
    """A REPL over a config-built federation whose sections set options."""
    gis = build_from_config({
        "sources": {
            "crm": {
                "type": "memory",
                "tables": {
                    "customers": {
                        "columns": [["id", "INT"], ["name", "TEXT"]],
                        "rows": [[1, "Ada"], [2, "Grace"]],
                    }
                },
            }
        },
        "tables": [{"name": "customers", "source": "crm"}],
        **sections,
    })
    out = io.StringIO()
    repl = Repl(gis, out=out)
    repl.run(list(lines))
    return out.getvalue(), repl


class TestConfiguredOptions:
    """Session knobs layer on the configured options; they never reset
    the options the config file set."""

    def test_session_knobs_keep_configured_options(self):
        _, repl = configured(
            "\\batch 1",
            "\\deadline 60000",
            "SELECT COUNT(*) FROM customers;",
            options={"semijoin": "off"},
            scheduler={"circuit_breaker": {"failure_threshold": 3}},
            tail={"hedge": True},
        )
        options = repl._options()
        assert options.batch_size == 1 and options.deadline_ms == 60000.0
        assert options.semijoin == "off"
        assert options.breaker_failure_threshold == 3
        assert options.hedge_fragments
        # Hedging runs fetches on worker threads: the configured policy ran.
        network = repl.last_result.metrics.network
        assert network.scheduler_mode == "sequential+timeout"

    def test_parallel_off_overrides_configured_degree(self):
        sql = "SELECT COUNT(*) FROM customers;"
        _, repl = configured(sql, scheduler={"max_parallel_fragments": 8})
        assert repl.last_result.metrics.network.scheduler_mode == "parallel(8)"
        _, repl = configured(
            "\\parallel off", sql, scheduler={"max_parallel_fragments": 8}
        )
        assert repl.last_result.metrics.network.scheduler_mode == "sequential"

    def test_partial_toggles_from_the_configured_mode(self):
        output, repl = configured(
            "\\partial", resilience={"on_source_failure": "partial"}
        )
        assert "mode: fail" in output
        assert repl._options().on_source_failure == "fail"

    def test_naive_layers_on_configured_options(self):
        _, repl = configured(
            "\\naive on", scheduler={"max_parallel_fragments": 8}
        )
        options = repl._options()
        assert options.pushdown == "scans-only"
        assert options.max_parallel_fragments == 8
