"""Observability subsystem: tracing, metrics, and profiling for the mediator.

In a mediated federation every performance or failure question — which
source was slow, which operator dominated, did a breaker trip — can only
be answered *inside* the mediator, because the component systems are
autonomous black boxes. This package is that vantage point, with three
self-contained layers (none imports the engine, so the engine can import
all of them freely):

* :mod:`repro.obs.trace` — structured spans on a monotonic clock with
  parent/child links, events, and explicit cross-thread propagation;
* :mod:`repro.obs.registry` — named counters / gauges / bucketed
  histograms aggregating across queries, thread-safe, no-op when disabled;
* :mod:`repro.obs.export` — JSON-lines streaming export, Chrome
  ``trace_event`` batch export (chrome://tracing / Perfetto), and the
  slow-query log.

:class:`Observability` bundles one of each per mediator and owns the glue
the engine calls: fold a finished query's metrics into the registry,
collect its spans, publish circuit-breaker state, export traces.

Everything defaults to **off** and is engineered to cost nothing when off:
the disabled tracer returns a falsy shared span, the disabled registry
returns shared no-op instruments, and the slow-query log short-circuits on
its threshold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .export import (
    JsonLinesTraceSink,
    SlowQueryLog,
    chrome_trace_events,
    write_chrome_trace,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    format_span_tree,
)

#: Numeric encoding of breaker states for the ``breaker.<src>.state`` gauge.
BREAKER_STATE_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


class Observability:
    """One mediator's tracer + metrics registry + slow-query log.

    Construction arms nothing by default; every layer switches on
    independently (config section ``observability``, REPL ``\\trace`` /
    ``\\metrics``, CLI ``--trace-out`` / ``--slow-query-ms``, or direct
    attribute access in code).
    """

    def __init__(
        self,
        trace: bool = False,
        metrics: bool = False,
        slow_query_ms: float = 0.0,
        trace_path: Optional[str] = None,
        trace_jsonl: Optional[str] = None,
        slow_query_path: Optional[str] = None,
        max_spans: int = 100_000,
    ) -> None:
        sink = JsonLinesTraceSink(trace_jsonl) if trace_jsonl else None
        self.tracer = Tracer(enabled=trace or bool(trace_path), sink=sink)
        self.registry = MetricsRegistry(enabled=metrics)
        self.slow_queries = SlowQueryLog(slow_query_ms, path=slow_query_path)
        self.trace_path = trace_path
        self.max_spans = max(max_spans, 1)
        self.spans: List[Span] = []

    # -- span collection ---------------------------------------------------

    def collect(self) -> List[Span]:
        """Drain the tracer into the retained span buffer (bounded)."""
        fresh = self.tracer.drain()
        if fresh:
            self.spans.extend(fresh)
            if len(self.spans) > self.max_spans:
                del self.spans[: len(self.spans) - self.max_spans]
        return fresh

    def clear_spans(self) -> None:
        self.tracer.drain()
        self.spans.clear()

    def export_chrome(self, path: Optional[str] = None) -> Optional[str]:
        """Write all retained spans as a Chrome trace; returns the path."""
        target = path or self.trace_path
        if target is None:
            return None
        return write_chrome_trace(target, self.spans)

    def maybe_export(self) -> None:
        """Refresh the Chrome trace file if one is configured."""
        if self.trace_path is not None and self.spans:
            write_chrome_trace(self.trace_path, self.spans)

    # -- query accounting --------------------------------------------------

    def record_query(
        self,
        sql: str,
        metrics: Any,
        failed: bool = False,
        excluded_sources: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold one finished query into the registry and slow-query log.

        ``metrics`` is a :class:`~repro.core.result.QueryMetrics` (duck
        typed — this package stays import-free of the engine). Failed
        queries still count: their transfer totals and breaker trips are
        real even though no result materialized. A non-empty
        ``excluded_sources`` marks a *partial* result (graceful
        degradation dropped those sources); partial queries count in
        ``queries_partial_total`` and carry their exclusions into the
        JSON-lines slow-query record so a degraded answer is visible in
        every sink.
        """
        excluded = excluded_sources or {}
        registry = self.registry
        if registry.enabled:
            net = metrics.network
            registry.counter("queries_total").inc()
            if failed:
                registry.counter("queries_failed_total").inc()
            if excluded:
                registry.counter("queries_partial_total").inc()
                registry.counter("sources_excluded_total").inc(len(excluded))
            if getattr(net, "plan_cache_hit", False):
                registry.counter("plan_cache_hits_total").inc()
            fragment_hits = getattr(net, "fragment_cache_hits", 0)
            fragment_misses = getattr(net, "fragment_cache_misses", 0)
            if fragment_hits:
                registry.counter("fragment_cache_hits_total").inc(fragment_hits)
            if fragment_misses:
                registry.counter("fragment_cache_misses_total").inc(
                    fragment_misses
                )
            bytes_saved = getattr(net, "fragment_cache_bytes_saved", 0.0)
            if bytes_saved:
                registry.counter("fragment_cache_bytes_saved_total").inc(
                    bytes_saved
                )
            mv_hits = getattr(net, "materialized_view_hits", 0)
            if mv_hits:
                registry.counter("materialized_view_hits_total").inc(mv_hits)
            registry.counter("rows_shipped_total").inc(net.rows_shipped)
            registry.counter("bytes_shipped_total").inc(net.bytes_shipped)
            registry.counter("messages_total").inc(net.messages)
            registry.counter("fragments_executed_total").inc(net.fragments_executed)
            registry.counter("fragment_retries_total").inc(net.fragment_retries)
            registry.counter("breaker_trips_total").inc(net.breaker_trips)
            registry.counter("breaker_fallbacks_total").inc(net.breaker_fallbacks)
            for field in (
                "hedges_launched", "hedges_won", "hedges_cancelled",
                "hedges_rows_shipped", "health_reroutes",
            ):
                value = getattr(net, field, 0)
                if value:
                    registry.counter(f"{field}_total").inc(value)
            registry.counter("rows_returned_total").inc(net.rows_output)
            registry.histogram("query_wall_ms").observe(metrics.wall_ms)
            registry.histogram("query_planning_ms").observe(metrics.planning_ms)
            registry.histogram("query_network_ms").observe(net.network_ms)
        if not failed:
            detail = {
                "rows_shipped": metrics.network.rows_shipped,
                "messages": metrics.network.messages,
                "network_ms": round(metrics.network.network_ms, 3),
                "complete": not excluded,
            }
            if excluded:
                detail["excluded_sources"] = dict(sorted(excluded.items()))
            self.slow_queries.record(
                sql,
                wall_ms=metrics.wall_ms,
                planning_ms=metrics.planning_ms,
                rows=metrics.network.rows_output,
                detail=detail,
            )

    def publish_cache_stats(
        self,
        fragment_cache: Optional[Dict[str, Any]] = None,
        materialized: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mirror the mediator's cache-layer state into the registry.

        Each argument is a stats dict as produced by the owning cache
        (``FragmentCache.stats()``, ``MaterializedViewRegistry.stats()``,
        both duck-typed). Cumulative counters land as
        ``<layer>.<name>`` gauges so the registry always shows the
        current totals without double counting across queries.
        """
        registry = self.registry
        if not registry.enabled:
            return
        for layer, stats in (
            ("fragment_cache", fragment_cache),
            ("materialized_views", materialized),
        ):
            if not stats:
                continue
            for name, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    registry.gauge(f"{layer}.{name}").set(float(value))

    def publish_breakers(self, breakers: Any) -> Dict[str, Dict[str, Any]]:
        """Mirror circuit-breaker state into the registry.

        ``breakers`` is a
        :class:`~repro.core.scheduler.CircuitBreakerRegistry`; its
        :meth:`snapshot` yields
        ``{source: {"state": ..., "trips": ..., "failures": ...}}``.
        Each source gets a ``breaker.<source>.state`` gauge (0 closed,
        1 half-open, 2 open), a ``breaker.<source>.trips`` gauge, and a
        ``breaker.<source>.failures`` gauge (consecutive recent failures).
        """
        states = breakers.snapshot()
        registry = self.registry
        if registry.enabled:
            for source, info in states.items():
                registry.gauge(f"breaker.{source}.state").set(
                    BREAKER_STATE_CODES.get(info["state"], -1.0)
                )
                registry.gauge(f"breaker.{source}.trips").set(info["trips"])
                registry.gauge(f"breaker.{source}.failures").set(
                    info.get("failures", 0)
                )
        return states

    def publish_health(self, health: Any) -> Dict[str, Dict[str, Any]]:
        """Mirror per-source health state into the registry.

        ``health`` is a
        :class:`~repro.core.health.SourceHealthRegistry`; each source
        gets ``health.<source>.<field>`` gauges for its latency EWMA and
        p50/p95/p99, error rate, sample count, and hedge win/launch
        counters (missing quantiles — a cold source — publish nothing).
        """
        states = health.snapshot()
        registry = self.registry
        if registry.enabled:
            for source, info in states.items():
                for name, value in info.items():
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        registry.gauge(f"health.{source}.{name}").set(
                            float(value)
                        )
        return states


__all__ = [
    "BREAKER_STATE_CODES",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLinesTraceSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observability",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "format_span_tree",
    "write_chrome_trace",
]
