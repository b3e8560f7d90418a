"""Metric names, units and bounds, and how each value is computed from the
phases' samples, the server's marks and the traced run's accumulators.

``BENCHMARK.json`` lists the same names; ``test_standing.py`` keeps the
two in step.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from . import spec, stats
from .loadgen import HarnessError, Phase


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may worsen;
    #: ``None`` for per-layer metrics, which have no bound.
    bound: Optional[float] = None
    #: ``wall`` metrics depend on the machine; ``virtual`` ones are counts
    #: off the simulated WAN and repeat exactly for a seed.
    clock: str = "wall"


#: What a user of the system sees. ``failed_share`` is reported with them
#: but, being 0 on a healthy run, is not a bounded ratio metric.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_ms_p50", "ms", "lower", 0.20),
    Metric("query_ms_p95", "ms", "lower", 0.25),
    Metric("qps_c1", "1/s", "higher", 0.20),
    Metric("qps_c2", "1/s", "higher", 0.25),
    Metric("query_ms_p95_c2", "ms", "lower", 0.25),
    Metric("server_cpu_ms_per_query", "ms", "lower", 0.20),
    Metric("server_peak_rss_mb", "MiB", "lower", 0.10),
    Metric("wan_bytes_per_query", "bytes", "lower", 0.10, "virtual"),
    Metric("wan_messages_per_query", "count", "lower", 0.10, "virtual"),
    Metric("wan_sim_ms_per_query", "virtual_ms", "lower", 0.10, "virtual"),
]
FAILED_SHARE = Metric("failed_share", "ratio", "lower", 0.0)

_LAYER_MS = (
    "serve.client.codec_ms", "serve.client.query_ms_p99",
    "serve.client.cold_ms_mean", "serve.protocol.decode_ms",
    "serve.protocol.encode_ms", "serve.admission.queue_wait_ms",
    "serve.admission.queue_wait_ms_c2", "serve.server.overhead_ms",
    "core.mediator.query_ms", "core.mediator.exec_ms", "sql.parse_ms",
    "core.prepared.parameterize_ms", "core.prepared.rebind_ms",
    "core.analyzer.bind_ms", "core.rewriter.rewrite_ms",
    "core.join_order.reorder_ms", "core.pushdown.apply_ms",
    "core.semijoin.apply_ms", "core.physical.build_ms",
    "core.planner.plan_ms", "core.planner.self_ms",
    "core.planner.explain_ms", "core.physical.exec_self_ms",
    "core.pages.convert_ms", "core.scheduler.wait_ms",
    "sources.sqlite.fetch_ms", "sources.memory.fetch_ms",
    "sources.csv.fetch_ms", "sources.keyvalue.fetch_ms",
    "sources.rest.fetch_ms", "sources.injected_wait_ms",
    "cache.fragments.probe_ms", "catalog.notify_ms",
)
PER_LAYER: List[Metric] = (
    [Metric(name, "ms", "lower") for name in _LAYER_MS]
    + [
        Metric("serve.protocol.response_bytes", "bytes/op", "lower"),
        Metric("serve.admission.rejected", "count", "lower"),
        Metric("core.prepared.hit_ratio", "ratio", "higher"),
        Metric("core.prepared.fallbacks", "count", "lower"),
        Metric("core.prepared.evictions", "count", "lower"),
        Metric("core.pages.pages", "count/op", "lower"),
        Metric("core.scheduler.fragments", "count/op", "lower"),
        Metric("core.scheduler.in_flight_peak", "count", "higher"),
        Metric("core.scheduler.stalls", "count/op", "lower"),
        Metric("core.scheduler.retries", "count", "lower"),
        Metric("sources.fetches", "count/op", "lower"),
        Metric("sources.rows", "count/op", "lower"),
        Metric("cache.fragments.hit_ratio", "ratio", "higher"),
        Metric("cache.fragments.subsumed_share", "ratio", "higher"),
        Metric("cache.fragments.evictions", "count", "lower"),
        Metric("cache.fragments.rejected_stale", "count", "lower"),
        Metric("cache.fragments.bytes_saved", "bytes/op", "higher"),
        Metric("cache.fragments.resident_bytes", "bytes", "lower"),
        Metric("catalog.notifies", "count", "lower"),
        Metric("setup.generate_s", "s", "lower"),
        Metric("setup.load_s", "s", "lower"),
        Metric("setup.analyze_s", "s", "lower"),
        Metric("setup.listen_s", "s", "lower"),
    ]
    + [Metric(f"shape.{shape}.ms_p50", "ms", "lower") for shape in spec.ALL_SHAPES]
    + [
        Metric("trace.overhead_share", "ratio", "lower"),
        Metric("trace.boundaries_missing", "count", "lower"),
    ]
)

#: Children of the query call that belong to planning; what is left of the
#: query after them is execution.
_PLAN_PHASE = (
    "sql.parse", "core.prepared.parameterize", "core.prepared.rebind",
    "core.planner.plan", "core.planner.explain",
)
#: Children of the query call inside execution that are not operator work.
_EXEC_PHASE = (
    "sources.sqlite.fetch", "sources.memory.fetch", "sources.csv.fetch",
    "sources.keyvalue.fetch", "sources.rest.fetch", "sources.injected_wait",
    "core.pages.convert", "core.scheduler.wait", "cache.fragments.probe",
)
_SOURCE_KINDS = ("sqlite", "memory", "csv", "keyvalue", "rest")
#: Boundaries that feed metrics other than ``<boundary>_ms``.
_FED_BY = {
    "core.mediator.query": (
        "core.mediator.query_ms", "core.mediator.exec_ms",
        "core.physical.exec_self_ms", "serve.server.overhead_ms",
    ),
    "core.planner.plan": ("core.planner.plan_ms", "core.planner.self_ms"),
    "core.pages.convert": ("core.pages.convert_ms", "core.pages.pages"),
}

Values = Dict[str, Dict[str, Any]]


def _entry(metric: Metric, value: Optional[float], samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": metric.unit, "samples": samples}


def _delta(phase: Phase, *path: str) -> float:
    before: Any = phase.before
    after: Any = phase.after
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _latencies(phase: Phase) -> List[float]:
    return [sample.latency_ms for sample in phase.ok_samples]


def _window_rates(phase: Phase) -> List[float]:
    return stats.window_rates(
        [sample.done_at for sample in phase.ok_samples], phase.started, spec.WINDOWS
    )


def end_to_end(
    setups: Sequence[float], c1: Phase, c2: Phase, peak_rss_kb: float
) -> Values:
    """The end-to-end metrics of one untraced run, plus ``failed_share``."""
    ok1, ok2 = _latencies(c1), _latencies(c2)
    if not ok1 or not ok2:
        raise HarnessError("a timed phase had no successful op")
    attempted = len(c1.samples) + len(c2.samples)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "query_ms_p50": (stats.percentile(ok1, 0.50), len(ok1)),
        "query_ms_p95": (stats.percentile(ok1, 0.95), len(ok1)),
        "qps_c1": (statistics.median(_window_rates(c1)), len(ok1)),
        "qps_c2": (statistics.median(_window_rates(c2)), len(ok2)),
        "query_ms_p95_c2": (stats.percentile(ok2, 0.95), len(ok2)),
        "server_cpu_ms_per_query": (
            _delta(c1, "process_time_s") * 1000.0 / len(c1.samples), len(c1.samples)
        ),
        "server_peak_rss_mb": (peak_rss_kb / 1024.0, 1),
        "wan_bytes_per_query": (
            _delta(c1, "network", "bytes") / len(c1.samples), len(c1.samples)
        ),
        "wan_messages_per_query": (
            _delta(c1, "network", "messages") / len(c1.samples), len(c1.samples)
        ),
        "wan_sim_ms_per_query": (
            _delta(c1, "network", "simulated_ms") / len(c1.samples), len(c1.samples)
        ),
    }
    out = {m.name: _entry(m, *values[m.name]) for m in END_TO_END}
    out[FAILED_SHARE.name] = _entry(
        FAILED_SHARE, (c1.failed + c2.failed) / attempted, attempted
    )
    return out


def window_spreads(c1: Phase, c2: Phase) -> Dict[str, float]:
    """Spread between a run's own repetitions (its windows), for the
    metrics that have them; ``compare`` reads it to say *unresolved*."""
    def p50s(phase: Phase) -> List[float]:
        ordered = sorted(phase.ok_samples, key=lambda sample: sample.done_at)
        size = len(ordered) // spec.WINDOWS
        return [
            stats.percentile(
                [s.latency_ms for s in ordered[i * size : (i + 1) * size]], 0.5
            )
            for i in range(spec.WINDOWS)
        ]

    return {
        "query_ms_p50": stats.spread(p50s(c1)),
        "qps_c1": stats.spread(_window_rates(c1)),
        "qps_c2": stats.spread(_window_rates(c2)),
    }


def _admission(phase: Phase, field: str) -> float:
    return sum(
        tenant[field] - phase.before["admission"].get(name, {}).get(field, 0)
        for name, tenant in phase.after["admission"].items()
    )


def per_layer(
    c1: Phase,
    c2: Phase,
    traced: Phase,
    client_trace: Dict[str, Any],
    cold_ms: Dict[str, float],
    setup_stages: Dict[str, float],
) -> Values:
    """The per-layer budget: ``traced`` is the traced run's c1 phase (its
    marks carry the server tracer's totals), ``client_trace`` the load
    generator's own codec totals over that phase; ``c1``/``c2`` are the
    untraced phases. Raises when a derived residual is negative: spans
    were double counted and the budget cannot be trusted."""
    ops = len(traced.samples)
    before = traced.before["trace"]
    after = traced.after["trace"]
    missing = list(after["missing"]) + list(client_trace["missing"])
    totals = dict(after["totals"])
    totals.update(client_trace["totals"])

    def acc(key: str, index: int) -> float:
        """Growth over the phase of one accumulator of a boundary
        (0 calls, 1 inclusive s, 2 self s, 3 s directly under the query)."""
        zero = [0, 0.0, 0.0, 0.0]
        return totals.get(key, zero)[index] - before["totals"].get(key, zero)[index]

    def total(key: str, index: int) -> float:
        """The same as milliseconds per op."""
        return acc(key, index) * 1000.0 / ops

    def counter(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    latencies = _latencies(traced)
    query_ms = total("core.mediator.query", 1)
    exec_ms = query_ms - sum(total(key, 3) for key in _PLAN_PHASE)
    exec_self_ms = exec_ms - sum(total(key, 3) for key in _EXEC_PHASE)
    client_codec = total("serve.client.codec", 2)
    decode_ms = total("serve.protocol.decode", 2)
    encode_ms = total("serve.protocol.encode", 2)
    queue_wait = _admission(traced, "queue_wait_ms_total") / ops
    overhead_ms = (
        statistics.fmean(latencies) - client_codec - decode_ms - encode_ms
        - queue_wait - query_ms
    )
    for name, value in (
        ("serve.server.overhead_ms", overhead_ms),
        ("core.mediator.exec_ms", exec_ms),
        ("core.physical.exec_self_ms", exec_self_ms),
    ):
        if value < 0:
            raise HarnessError(
                f"traced run invalid: derived {name} = {value:.4f} ms < 0 "
                "(double-counted spans)"
            )

    plan = {k: _delta(traced, "plan_cache", k) for k in ("hits", "misses", "fallbacks", "evictions")}
    plan_lookups = plan["hits"] + plan["misses"] + plan["fallbacks"]
    frag = {
        k: _delta(traced, "fragment_cache", k)
        for k in ("hits", "subsumed_hits", "misses", "evictions", "rejected_stale")
    }
    frag_hits = frag["hits"] + frag["subsumed_hits"]
    notifies = _delta(traced, "notify", "calls")
    untraced_p50 = stats.percentile(_latencies(c1), 0.5)
    by_shape: Dict[str, List[float]] = {}
    for sample in c1.ok_samples:
        by_shape.setdefault(sample.shape, []).append(sample.latency_ms)

    values: Dict[str, Optional[float]] = {
        "serve.client.codec_ms": client_codec,
        "serve.client.query_ms_p99": stats.percentile_if_supported(latencies, 0.99),
        "serve.client.cold_ms_mean": statistics.fmean(cold_ms.values()),
        "serve.protocol.decode_ms": decode_ms,
        "serve.protocol.encode_ms": encode_ms,
        "serve.protocol.response_bytes": counter("serve.protocol.response_bytes") / ops,
        "serve.admission.queue_wait_ms": queue_wait,
        "serve.admission.queue_wait_ms_c2": (
            _admission(c2, "queue_wait_ms_total") / len(c2.samples)
        ),
        "serve.admission.rejected": _admission(traced, "rejected"),
        "serve.server.overhead_ms": overhead_ms,
        "core.mediator.query_ms": query_ms,
        "core.mediator.exec_ms": exec_ms,
        "sql.parse_ms": total("sql.parse", 2),
        "core.prepared.parameterize_ms": total("core.prepared.parameterize", 2),
        "core.prepared.rebind_ms": total("core.prepared.rebind", 2),
        "core.prepared.hit_ratio": plan["hits"] / plan_lookups if plan_lookups else 0.0,
        "core.prepared.fallbacks": plan["fallbacks"],
        "core.prepared.evictions": plan["evictions"],
        "core.analyzer.bind_ms": total("core.analyzer.bind", 2),
        "core.rewriter.rewrite_ms": total("core.rewriter.rewrite", 2),
        "core.join_order.reorder_ms": total("core.join_order.reorder", 2),
        "core.pushdown.apply_ms": total("core.pushdown.apply", 2),
        "core.semijoin.apply_ms": total("core.semijoin.apply", 2),
        "core.physical.build_ms": total("core.physical.build", 2),
        "core.planner.plan_ms": total("core.planner.plan", 1),
        "core.planner.self_ms": total("core.planner.plan", 2),
        "core.planner.explain_ms": total("core.planner.explain", 2),
        "core.physical.exec_self_ms": exec_self_ms,
        "core.pages.convert_ms": total("core.pages.convert", 2),
        "core.pages.pages": acc("core.pages.convert", 0) / ops,
        "core.scheduler.wait_ms": total("core.scheduler.wait", 2),
        "core.scheduler.fragments": counter("core.scheduler.wait.iterators") / ops,
        "core.scheduler.in_flight_peak": after["counters"].get("fragments_in_flight_peak", 0),
        "core.scheduler.stalls": counter("scheduler_stalls") / ops,
        "core.scheduler.retries": counter("fragment_retries"),
        "sources.fetches": sum(
            counter(f"sources.{kind}.fetch.iterators") for kind in _SOURCE_KINDS
        ) / ops,
        "sources.rows": counter("sources.rows") / ops,
        "sources.injected_wait_ms": total("sources.injected_wait", 2),
        "cache.fragments.hit_ratio": (
            frag_hits / (frag_hits + frag["misses"]) if frag_hits + frag["misses"] else 0.0
        ),
        "cache.fragments.subsumed_share": (
            frag["subsumed_hits"] / frag_hits if frag_hits else 0.0
        ),
        "cache.fragments.evictions": frag["evictions"],
        "cache.fragments.rejected_stale": frag["rejected_stale"],
        "cache.fragments.bytes_saved": counter("fragment_cache_bytes_saved") / ops,
        "cache.fragments.probe_ms": total("cache.fragments.probe", 2),
        "cache.fragments.resident_bytes": traced.after["fragment_cache"]["bytes"],
        "catalog.notify_ms": (
            _delta(traced, "notify", "ms_total") / notifies if notifies else 0.0
        ),
        "catalog.notifies": notifies,
        "trace.overhead_share": (
            (stats.percentile(latencies, 0.5) - untraced_p50) / untraced_p50
        ),
        "trace.boundaries_missing": len(missing),
    }
    for kind in _SOURCE_KINDS:
        values[f"sources.{kind}.fetch_ms"] = total(f"sources.{kind}.fetch", 2)
    for stage, seconds in setup_stages.items():
        values[f"setup.{stage}"] = seconds
    for shape in spec.ALL_SHAPES:
        # Another workload's shape: no samples, reported as 0.
        samples = by_shape.get(shape)
        values[f"shape.{shape}.ms_p50"] = (
            stats.percentile(samples, 0.5) if samples else 0.0
        )
    # A metric fed by a boundary that no longer exists cannot be trusted.
    for _target, key in missing:
        for name in _FED_BY.get(key, (key + "_ms",)):
            values[name] = None
    return {m.name: _entry(m, values[m.name], ops) for m in PER_LAYER}
