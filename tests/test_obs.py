"""The observability subsystem: tracing, metrics registry, and exporters.

Covers the tracer's span/parentage semantics (including propagation onto
scheduler worker threads and the race-safe double-end), the zero-cost
disabled path, Chrome trace_event export schema, the metrics registry,
the slow-query log, circuit-breaker state surfaced through the registry,
and the REPL/config entry points.
"""

import io
import json
import threading
from typing import Iterator

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    PlannerOptions,
    SourceCapabilities,
    SourceError,
    build_from_config,
)
from repro.catalog.schema import schema_from_pairs
from repro.core.fragments import Fragment
from repro.errors import CatalogError
from repro.obs import (
    BREAKER_STATE_CODES,
    JsonLinesTraceSink,
    MetricsRegistry,
    NULL_SPAN,
    Observability,
    SlowQueryLog,
    Tracer,
    chrome_trace_events,
    format_span_tree,
    write_chrome_trace,
)
from repro.repl import Repl

from .conftest import make_small_gis

SCHEMA = schema_from_pairs("t", [("a", "INT"), ("b", "TEXT")])
ROWS = [(i, f"v{i}") for i in range(50)]


def build(source, observability=None, retries=0):
    gis = GlobalInformationSystem(observability=observability,
                                  fragment_retries=retries)
    source.add_table("t", SCHEMA, ROWS)
    gis.register_source(source.name, source)
    gis.register_table("t", source=source.name)
    return gis


class BrokenSource(MemorySource):
    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        raise SourceError(self.name, "connection refused")
        yield  # pragma: no cover - makes this a generator


def traced_gis():
    obs = Observability(trace=True, metrics=True)
    return build(MemorySource("mem"), observability=obs), obs


def spans_named(spans, name):
    return [s for s in spans if s.name == name]


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_returns_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.root_span("query")
        assert span is NULL_SPAN
        assert not span
        # The whole API is absorbed without effect.
        span.set_attribute("x", 1)
        span.event("e")
        span.end()
        assert tracer.drain() == []

    def test_null_parent_begets_null_child(self):
        tracer = Tracer(enabled=True)
        assert tracer.child(NULL_SPAN, "child") is NULL_SPAN

    def test_parent_links_and_trace_id_flow(self):
        tracer = Tracer(enabled=True)
        root = tracer.root_span("query", sql="SELECT 1")
        child = tracer.child(root, "phase:parse", "phase")
        grandchild = tracer.child(child, "inner")
        for span in (grandchild, child, root):
            span.end()
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert root.parent_id is None

    def test_force_traces_one_query_while_disabled(self):
        tracer = Tracer(enabled=False)
        root = tracer.root_span("query", force=True)
        child = tracer.child(root, "phase:plan")
        child.end()
        root.end()
        assert len(tracer.drain()) == 2

    def test_end_is_idempotent_and_race_safe(self):
        tracer = Tracer(enabled=True)
        span = tracer.root_span("fragment")
        span.end()
        first_end = span.end_ms
        span.end()  # consumer-side timeout end arriving late
        assert span.end_ms == first_end
        assert len(tracer.drain()) == 1

    def test_events_carry_timestamps_and_attributes(self):
        tracer = Tracer(enabled=True)
        span = tracer.root_span("fragment")
        span.event("retry", attempt=1, delay_ms=50)
        span.end()
        (name, ts_ms, attrs) = span.events[0]
        assert name == "retry"
        assert span.start_ms <= ts_ms <= span.end_ms
        assert attrs == {"attempt": 1, "delay_ms": 50}

    def test_context_manager_records_errors(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.root_span("query") as span:
                raise ValueError("boom")
        assert "boom" in span.attributes["error"]
        assert span.end_ms is not None

    def test_ring_drops_oldest_beyond_max_spans(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for index in range(5):
            tracer.root_span(f"s{index}").end()
        spans = tracer.drain()
        assert [s.name for s in spans] == ["s2", "s3", "s4"]
        assert tracer.dropped_spans == 2

    def test_activation_is_thread_local(self):
        tracer = Tracer(enabled=True)
        root = tracer.root_span("query")
        seen = []
        with tracer.activate(root):
            thread = threading.Thread(target=lambda: seen.append(tracer.current))
            thread.start()
            thread.join()
            assert tracer.current is root
        assert seen == [None]
        assert tracer.current is None


# ---------------------------------------------------------------------------
# traced query execution
# ---------------------------------------------------------------------------


class TestTracedQueries:
    def test_mediator_phases_present_with_correct_parents(self):
        gis, obs = traced_gis()
        gis.query("SELECT COUNT(*) FROM t")
        spans = obs.spans
        (root,) = spans_named(spans, "query")
        phases = {s.name for s in spans if s.parent_id == root.span_id}
        assert {"phase:parse", "phase:analyze", "phase:rewrite",
                "phase:plan", "phase:execute"} <= phases
        (plan_phase,) = spans_named(spans, "phase:plan")
        sub_phases = {s.name for s in spans if s.parent_id == plan_phase.span_id}
        assert {"join-order", "pushdown", "semijoin", "physical"} <= sub_phases

    def test_operator_spans_under_execute_phase(self):
        gis, obs = traced_gis()
        gis.query("SELECT a FROM t WHERE a > 10")
        (execute,) = spans_named(obs.spans, "phase:execute")
        operators = [s for s in obs.spans if s.category == "operator"]
        assert operators
        assert all(s.parent_id == execute.span_id for s in operators)
        exchange = next(s for s in operators if "Exchange" in s.name)
        assert exchange.attributes["rows"] == 39

    def test_fragment_spans_cross_scheduler_threads(self):
        obs = Observability(trace=True)
        federation_gis = build(MemorySource("mem"), observability=obs)
        federation_gis.query(
            "SELECT COUNT(*) FROM t",
            PlannerOptions(max_parallel_fragments=4),
        )
        (execute,) = spans_named(obs.spans, "phase:execute")
        (fragment,) = spans_named(obs.spans, "fragment:mem")
        # Parent captured at submit time, recorded on the worker thread.
        assert fragment.parent_id == execute.span_id
        assert fragment.thread_name != execute.thread_name
        assert fragment.thread_name.startswith("gis-fragment-")
        assert fragment.attributes["mode"] == "parallel(4)"
        assert any(name == "page" for name, _, _ in fragment.events)

    def test_sequential_fragment_span_records_pages(self):
        gis, obs = traced_gis()
        gis.query("SELECT a FROM t")
        (fragment,) = spans_named(obs.spans, "fragment:mem")
        assert fragment.attributes["mode"] == "sequential"
        page_events = [e for e in fragment.events if e[0] == "page"]
        assert sum(e[2]["rows"] for e in page_events) == 50

    def test_sequential_bind_join_spans_one_fragment_per_key_batch(self):
        gis, obs = traced_gis()
        probe = MemorySource("probe")
        probe.add_table(
            "p", schema_from_pairs("p", [("k", "INT")]),
            [(i,) for i in range(0, 60, 2)],
        )
        gis.register_source("probe", probe)
        gis.register_table("p", source="probe")
        mem = gis.catalog.source("mem")
        mem._capabilities = mem.capabilities().restricted(in_list_max=10)
        result = gis.query(
            "SELECT t.b FROM p JOIN t ON p.k = t.a",
            PlannerOptions(semijoin="force"),
        )
        assert result.metrics.network.semijoin_batches == 3
        (execute,) = spans_named(obs.spans, "phase:execute")
        batches = spans_named(obs.spans, "fragment:mem")
        assert [s.attributes["mode"] for s in batches] == ["sequential"] * 3
        assert all(s.parent_id == execute.span_id for s in batches)
        assert all(
            s.thread_name == execute.thread_name for s in batches
        )

    def test_per_query_trace_option_forces_spans(self):
        gis = build(MemorySource("mem"))  # observability fully off
        gis.query("SELECT COUNT(*) FROM t")
        assert gis.obs.spans == []
        gis.query("SELECT COUNT(*) FROM t", PlannerOptions(trace=True))
        assert spans_named(gis.obs.spans, "query")

    def test_disabled_observability_records_nothing(self):
        gis = build(MemorySource("mem"))
        gis.query("SELECT COUNT(*) FROM t")
        assert gis.obs.spans == []
        assert gis.obs.tracer.drain() == []
        assert gis.obs.registry.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}

    def test_failed_query_closes_root_with_error(self):
        obs = Observability(trace=True)
        gis = build(BrokenSource("down"), observability=obs)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t")
        (root,) = spans_named(obs.spans, "query")
        assert "error" in root.attributes
        assert root.end_ms is not None

    def test_format_span_tree_nests(self):
        gis, obs = traced_gis()
        gis.query("SELECT COUNT(*) FROM t")
        tree = format_span_tree(obs.spans)
        assert tree.splitlines()[0].startswith("query")
        assert "  phase:plan" in tree


class TestDisabledPath:
    """Observing a query never changes it: every configuration returns the
    rows and the transfer ledger of the disabled default."""

    SQL = "SELECT a, a * 2 FROM t WHERE b > 'v2' OR a < 5"

    @pytest.mark.parametrize(
        "observability",
        [
            dict(metrics=True),
            dict(trace=True),
            dict(trace=True, metrics=True),
        ],
        ids=["metrics", "trace", "trace+metrics"],
    )
    def test_configuration_returns_the_disabled_result(self, observability):
        scan_only = SourceCapabilities.scan_only(page_rows=7)
        baseline = build(MemorySource("mem", capabilities=scan_only)).query(self.SQL)
        observed = build(
            MemorySource("mem", capabilities=scan_only),
            observability=Observability(**observability),
        ).query(self.SQL)
        assert observed.rows == baseline.rows
        for field in ("rows_shipped", "messages", "bytes_shipped", "network_ms"):
            assert getattr(observed.metrics.network, field) == getattr(
                baseline.metrics.network, field
            )


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_exported_file_is_valid_trace_event_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs = Observability(trace=True, trace_path=path)
        gis = build(MemorySource("mem"), observability=obs)
        gis.query("SELECT COUNT(*) FROM t",
                  PlannerOptions(max_parallel_fragments=2))
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        phases = {event["ph"] for event in events}
        assert phases <= {"M", "X", "i"}
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
                assert "span_id" in event["args"]

    def test_span_ids_resolve_within_export(self):
        gis, obs = traced_gis()
        gis.query("SELECT COUNT(*) FROM t")
        events = chrome_trace_events(obs.spans)
        span_ids = {e["args"]["span_id"] for e in events if e["ph"] == "X"}
        parent_ids = {
            e["args"]["parent_id"]
            for e in events
            if e["ph"] == "X" and "parent_id" in e["args"]
        }
        assert parent_ids <= span_ids

    def test_threads_get_metadata_tracks(self, tmp_path):
        gis = build(
            MemorySource("mem"),
            observability=Observability(trace=True),
        )
        gis.query("SELECT COUNT(*) FROM t",
                  PlannerOptions(max_parallel_fragments=2))
        events = chrome_trace_events(gis.obs.spans)
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert any(n.startswith("gis-fragment-") for n in names)

    def test_write_chrome_trace_returns_path(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.root_span("query").end()
        path = str(tmp_path / "out.json")
        assert write_chrome_trace(path, tracer.drain()) == path

    def test_jsonl_sink_streams_each_span(self):
        stream = io.StringIO()
        tracer = Tracer(enabled=True, sink=JsonLinesTraceSink(stream))
        root = tracer.root_span("query")
        tracer.child(root, "phase:parse").end()
        root.end()
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        assert [line["name"] for line in lines] == ["phase:parse", "query"]
        assert lines[0]["parent_id"] == lines[1]["span_id"]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("queries_total").inc()
        registry.counter("queries_total").inc(2)
        registry.gauge("depth").set(3.5)
        registry.histogram("wall_ms").observe(12.0)
        registry.histogram("wall_ms").observe(700.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["queries_total"] == 3
        assert snapshot["gauges"]["depth"] == 3.5
        histogram = snapshot["histograms"]["wall_ms"]
        assert histogram["count"] == 2
        assert histogram["min"] == 12.0 and histogram["max"] == 700.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_disabled_registry_hands_out_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.counter("b")
        counter.inc(5)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        assert registry.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_clears_values(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc(7)
        registry.reset()
        assert registry.snapshot()["counters"]["c"] == 0

    def test_format_snapshot_mentions_instruments(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("queries_total").inc(4)
        registry.histogram("query_wall_ms").observe(3.0)
        text = registry.format_snapshot()
        assert "queries_total" in text and "4" in text
        assert "query_wall_ms" in text

    def test_query_metrics_folded_per_query(self):
        gis, obs = traced_gis()
        gis.query("SELECT COUNT(*) FROM t")
        gis.query("SELECT a FROM t WHERE a < 5")
        snapshot = obs.registry.snapshot()
        assert snapshot["counters"]["queries_total"] == 2
        assert snapshot["counters"]["rows_shipped_total"] > 0
        assert snapshot["histograms"]["query_wall_ms"]["count"] == 2

    def test_failed_queries_counted(self):
        obs = Observability(metrics=True)
        gis = build(BrokenSource("down"), observability=obs)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t")
        snapshot = obs.registry.snapshot()
        assert snapshot["counters"]["queries_total"] == 1
        assert snapshot["counters"]["queries_failed_total"] == 1


# ---------------------------------------------------------------------------
# circuit breakers through the registry
# ---------------------------------------------------------------------------


class TestBreakerMetrics:
    def test_trip_counted_and_state_published(self):
        obs = Observability(metrics=True)
        gis = build(BrokenSource("down"), observability=obs, retries=2)
        options = PlannerOptions(breaker_failure_threshold=2,
                                 breaker_reset_ms=60000.0)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t", options)
        snapshot = obs.registry.snapshot()
        # The in-query retries crossed the threshold: the trip is folded
        # into the registry even though the query itself failed.
        assert snapshot["counters"]["breaker_trips_total"] == 1
        assert snapshot["gauges"]["breaker.down.state"] == \
            BREAKER_STATE_CODES["open"]
        assert snapshot["gauges"]["breaker.down.trips"] == 1

    def test_registry_snapshot_of_breakers(self):
        gis = build(BrokenSource("down"), retries=2)
        options = PlannerOptions(breaker_failure_threshold=2)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t", options)
        assert gis.breakers.snapshot() == \
            {"down": {"state": "open", "trips": 1, "failures": 2}}


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_ms=100.0)
        assert not log.record("fast", wall_ms=5.0)
        assert log.record("slow", wall_ms=250.0, rows=7)
        (entry,) = log.entries
        assert entry["sql"] == "slow" and entry["rows"] == 7

    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.record("anything", wall_ms=1e9)

    def test_bounded_entries(self):
        log = SlowQueryLog(threshold_ms=1.0, max_entries=2)
        for index in range(4):
            log.record(f"q{index}", wall_ms=10.0)
        assert [e["sql"] for e in log.entries] == ["q2", "q3"]

    def test_appends_jsonl_file(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(threshold_ms=1.0, path=path)
        log.record("SELECT 1", wall_ms=9.0)
        with open(path) as handle:
            entry = json.loads(handle.readline())
        assert entry["sql"] == "SELECT 1"

    def test_slow_queries_captured_from_mediator(self):
        obs = Observability(slow_query_ms=0.0001)
        gis = build(MemorySource("mem"), observability=obs)
        gis.query("SELECT COUNT(*) FROM t")
        assert obs.slow_queries.entries
        assert obs.slow_queries.entries[0]["sql"] == "SELECT COUNT(*) FROM t"


# ---------------------------------------------------------------------------
# REPL and config entry points
# ---------------------------------------------------------------------------


def drive(gis, *lines):
    out = io.StringIO()
    repl = Repl(gis, out=out)
    repl.run(list(lines))
    return out.getvalue(), repl


class TestReplCommands:
    def test_trace_on_off_and_status(self):
        gis = make_small_gis()
        output, _ = drive(gis, "\\trace on", "\\trace", "\\trace off",
                          "\\trace")
        assert "tracing ON" in output and "tracing OFF" in output
        assert "spans retained" in output

    def test_trace_to_file_exports_chrome_trace(self, tmp_path):
        path = str(tmp_path / "repl-trace.json")
        gis = make_small_gis()
        output, _ = drive(gis, f"\\trace {path}",
                          "SELECT COUNT(*) FROM customers;")
        assert f"tracing ON -> {path}" in output
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]

    def test_metrics_shows_registry_and_breakers(self):
        gis = GlobalInformationSystem(
            observability=Observability(metrics=True)
        )
        source = MemorySource("mem")
        source.add_table("t", SCHEMA, ROWS)
        gis.register_source("mem", source)
        gis.register_table("t", source="mem")
        gis.breakers.breaker_for("mem", 2, 60000.0)  # materialize a breaker
        output, _ = drive(gis, "SELECT COUNT(*) FROM t;", "\\metrics")
        assert "queries_total" in output
        assert "breaker mem: closed (0 trips)" in output

    def test_main_wires_trace_out_flag(self, tmp_path, monkeypatch):
        import repro.repl as repl_module

        path = str(tmp_path / "cli-trace.json")
        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT 1;\n"))
        repl_module.main(["--trace-out", path, "--slow-query-ms", "5000"])
        with open(path) as handle:
            document = json.load(handle)
        assert any(e.get("name") == "query"
                   for e in document["traceEvents"])


class TestConfigSection:
    def config(self, **observability):
        return {
            "sources": {
                "mem": {
                    "type": "memory",
                    "tables": {
                        "t": {"columns": [["a", "INT"]], "rows": [[1], [2]]}
                    },
                }
            },
            "tables": [{"name": "t", "source": "mem"}],
            "observability": observability,
        }

    def test_builds_armed_observability(self, tmp_path):
        path = str(tmp_path / "trace.json")
        gis = build_from_config(
            self.config(trace=True, metrics=True, slow_query_ms=250,
                        trace_out=path)
        )
        assert gis.obs.tracer.enabled
        assert gis.obs.registry.enabled
        assert gis.obs.slow_queries.threshold_ms == 250
        assert gis.obs.trace_path == path
        gis.query("SELECT COUNT(*) FROM t")
        assert spans_named(gis.obs.spans, "query")

    def test_rejects_unknown_keys(self):
        with pytest.raises(CatalogError, match="observability"):
            build_from_config(self.config(tracing=True))

    def test_rejects_bad_types(self):
        with pytest.raises(CatalogError, match="'trace' must be a boolean"):
            build_from_config(self.config(trace="yes"))
        with pytest.raises(CatalogError, match="'slow_query_ms'"):
            build_from_config(self.config(slow_query_ms="fast"))


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE timing tree
# ---------------------------------------------------------------------------


class TestExplainAnalyzeTimings:
    def test_every_operator_row_shows_wall_ms(self, small_gis):
        import re

        text = small_gis.explain_analyze(
            "SELECT c.region, COUNT(*) FROM customers c "
            "JOIN orders o ON c.id = o.cust_id GROUP BY c.region"
        )
        plan = text.split("\n\n")[0].splitlines()[1:]
        assert plan
        for line in plan:
            assert re.search(r"\[\d+ rows(?: / \d+ batches)? / [\d.]+ ms\]",
                             line), line

    def test_live_tracer_profiles_each_operator_once(
        self, small_gis, monkeypatch
    ):
        from collections import Counter

        from repro.core import mediator

        wrapped = Counter()
        profile = mediator.profile_operators

        def counting(root, *args, **kwargs):
            wrapped.update(id(op) for op in root.walk())
            return profile(root, *args, **kwargs)

        monkeypatch.setattr(mediator, "profile_operators", counting)
        small_gis.obs = Observability(trace=True)
        text = small_gis.explain_analyze(
            "SELECT c.region, COUNT(*) FROM customers c "
            "JOIN orders o ON c.id = o.cust_id GROUP BY c.region"
        )
        plan = text.split("\n\n")[0].splitlines()[1:]
        operators = [s for s in small_gis.obs.spans if s.category == "operator"]
        assert set(wrapped.values()) == {1}
        assert len(wrapped) == len(plan) == len(operators)
        assert all(s.name.startswith("op:") for s in operators)

    def test_explain_analyze_counts_as_a_query(self, small_gis):
        small_gis.obs = Observability(metrics=True)
        before = small_gis.network.total.messages
        small_gis.explain_analyze("SELECT COUNT(*) FROM customers")
        shipped = small_gis.network.total.messages - before
        counters = small_gis.obs.registry.snapshot()["counters"]
        assert shipped > 0
        assert counters["queries_total"] == 1
        assert counters["messages_total"] == shipped
