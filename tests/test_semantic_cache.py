"""Semantic fragment cache + materialized views (repro.cache).

The load-bearing invariants:

* a cached answer — exact or subsumed — is **bit-identical** (rows and
  value types) to cold execution and ships **zero** fragment bytes;
* subsumption is sound for equality, closed/open ranges, conjunctions,
  and NULL-bearing columns (3VL: range predicates never select NULLs);
* **partial results never enter the cache**, and a source-epoch bump
  mid-flight can never admit (or serve) pre-bump pages.
"""

from __future__ import annotations

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
)
from repro.cache import FragmentCache, SourceEpochs
from repro.core.planner import EXECUTION_ONLY_OPTIONS
from repro.catalog.schema import schema_from_pairs
from repro.core.pages import Page
from repro.core.physical import ExchangeExec
from repro.errors import CatalogError, ExecutionError, ParseError
from repro.sources.faults import FaultPlan, FaultSpec
from repro.sql.parser import parse_utility

ROWS = [
    # NULL-bearing score/region columns on purpose.
    (i, f"name{i}", ("east" if i % 2 else "west") if i % 7 else None,
     float(i) if i % 5 else None)
    for i in range(1, 121)
]


def make_gis(fragment_cache_bytes=1_000_000, **kwargs):
    gis = GlobalInformationSystem(
        fragment_cache_bytes=fragment_cache_bytes, **kwargs
    )
    crm = MemorySource("crm")
    crm.add_table(
        "customers",
        schema_from_pairs(
            "customers",
            [("id", "INT"), ("name", "TEXT"), ("region", "TEXT"),
             ("score", "FLOAT")],
        ),
        ROWS,
    )
    gis.register_source("crm", crm, link=NetworkLink(20.0, 1_000_000.0))
    gis.register_table("customers", source="crm")
    return gis


def assert_bit_identical(result, oracle):
    assert result.column_names == oracle.column_names
    assert sorted(result.rows) == sorted(oracle.rows)
    by_key = {row: row for row in oracle.rows}
    for row in result.rows:
        twin = by_key[row]
        for a, b in zip(row, twin):
            assert type(a) is type(b), (row, twin)


# ---------------------------------------------------------------------------
# exact + subsumed hits
# ---------------------------------------------------------------------------


def test_exact_hit_ships_zero_bytes_and_is_bit_identical():
    gis = make_gis()
    sql = "SELECT id, score FROM customers WHERE score > 10"
    cold = gis.query(sql)
    assert cold.metrics.bytes_shipped > 0
    warm = gis.query(sql)
    assert warm.metrics.bytes_shipped == 0.0
    assert warm.metrics.network.fragment_cache_hits == 1
    assert warm.metrics.network.fragment_cache_bytes_saved == pytest.approx(
        cold.metrics.bytes_shipped
    )
    assert_bit_identical(warm, cold)
    stats = gis.fragment_cache.stats()
    assert stats["hits"] == 1 and stats["admissions"] == 1


SUPERSET = "SELECT id, region, score FROM customers WHERE score >= 10"

SUBSUMED_PROBES = [
    # open range inside a closed one
    "SELECT id, score FROM customers WHERE score > 50",
    # closed range, both ends
    "SELECT id, region, score FROM customers WHERE score >= 20 AND score <= 90",
    # equality inside the range
    "SELECT id FROM customers WHERE score = 33",
    # BETWEEN sugar
    "SELECT score FROM customers WHERE score BETWEEN 15 AND 30",
    # conjunction adding a constraint on another shipped column
    "SELECT id, region FROM customers WHERE score > 10 AND region = 'east'",
    # IN-list inside the range
    "SELECT id, score FROM customers WHERE score IN (12, 14, 16) AND score >= 10",
    # redundant IS NOT NULL on a range-constrained NULL-bearing column
    "SELECT id, score FROM customers WHERE score > 25 AND score IS NOT NULL",
]


@pytest.mark.parametrize("probe", SUBSUMED_PROBES)
def test_subsumed_probe_matches_oracle_with_zero_bytes(probe):
    gis = make_gis()
    gis.query(SUPERSET)
    result = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert result.metrics.bytes_shipped == 0.0, probe
    assert result.metrics.network.fragment_cache_hits == 1
    assert_bit_identical(result, oracle)
    assert gis.fragment_cache.stats()["subsumed_hits"] == 1


NOT_SUBSUMED_PROBES = [
    # wider range
    "SELECT id, score FROM customers WHERE score >= 5",
    # boundary widening: cached `>= 10` does not contain `> 9`
    "SELECT id, score FROM customers WHERE score > 9",
    # needs a column the cached fragment did not ship
    "SELECT id, name FROM customers WHERE score > 50",
    # NULL rows were filtered out of the cached result (3VL)
    "SELECT id, score FROM customers WHERE score IS NULL",
    # unconstrained scan
    "SELECT id, score FROM customers",
]


@pytest.mark.parametrize("probe", NOT_SUBSUMED_PROBES)
def test_non_subsumed_probe_goes_to_the_source(probe):
    gis = make_gis()
    gis.query(SUPERSET)
    result = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert result.metrics.bytes_shipped > 0, probe
    assert_bit_identical(result, oracle)


def test_unfiltered_scan_subsumes_null_probes():
    """A cached full scan contains the NULL rows, so IS NULL is servable."""
    gis = make_gis()
    gis.query("SELECT id, score FROM customers")
    for probe in (
        "SELECT id, score FROM customers WHERE score IS NULL",
        "SELECT id, score FROM customers WHERE score IS NOT NULL",
        "SELECT id FROM customers WHERE score < 40",
    ):
        result = gis.query(probe)
        oracle = make_gis(fragment_cache_bytes=0).query(probe)
        assert result.metrics.bytes_shipped == 0.0, probe
        assert_bit_identical(result, oracle)


def test_strict_boundary_subsumption_is_exact():
    gis = make_gis()
    gis.query("SELECT id, score FROM customers WHERE score > 10")
    # `>= 10` includes score == 10 which the cached entry filtered out.
    probe = "SELECT id, score FROM customers WHERE score >= 10"
    result = gis.query(probe)
    assert result.metrics.bytes_shipped > 0
    assert_bit_identical(
        result, make_gis(fragment_cache_bytes=0).query(probe)
    )


def test_warm_replay_matches_uncached_oracle():
    gis = make_gis()
    gis.query(SUPERSET)
    probe = "SELECT id, score FROM customers WHERE score > 40"
    warm = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert warm.metrics.bytes_shipped == 0.0
    assert_bit_identical(warm, oracle)


def test_parallel_scheduler_fills_then_replays():
    options = PlannerOptions(max_parallel_fragments=4)
    gis = make_gis()
    cold = gis.query(SUPERSET, options)
    assert cold.metrics.bytes_shipped > 0
    warm = gis.query(SUPERSET, options)
    assert warm.metrics.bytes_shipped == 0.0
    assert_bit_identical(warm, cold)


# ---------------------------------------------------------------------------
# budget, eviction, invalidation
# ---------------------------------------------------------------------------


def test_lru_eviction_respects_byte_budget():
    gis = make_gis()
    baseline = gis.query(SUPERSET).metrics.bytes_shipped
    gis.fragment_cache.clear()
    small = make_gis(fragment_cache_bytes=int(baseline) + 8)
    small.query(SUPERSET)
    small.query("SELECT id, name, region, score FROM customers")
    stats = small.fragment_cache.stats()
    assert stats["bytes"] <= stats["budget_bytes"] or stats["entries"] == 1
    assert stats["evictions"] + stats["rejected_oversize"] >= 1


def test_notify_source_changed_invalidates_fragments():
    gis = make_gis()
    gis.query(SUPERSET)
    assert gis.query(SUPERSET).metrics.bytes_shipped == 0.0
    gis.notify_source_changed("crm")
    post = gis.query(SUPERSET)
    assert post.metrics.bytes_shipped > 0
    assert len(gis.fragment_cache) == 1  # refilled on the new epoch


def test_zero_budget_disables_the_cache():
    gis = make_gis(fragment_cache_bytes=0)
    gis.query(SUPERSET)
    warm = gis.query(SUPERSET)
    assert warm.metrics.bytes_shipped > 0
    assert not gis.fragment_cache.enabled
    with pytest.raises(ValueError):
        FragmentCache(-1, SourceEpochs())


# ---------------------------------------------------------------------------
# chaos: partial results and mid-flight epoch bumps
# ---------------------------------------------------------------------------


def test_partial_results_are_never_admitted():
    plan = FaultPlan.of(seed=3, crm=FaultSpec(fail_after_pages=1))
    options = PlannerOptions(on_source_failure="partial", faults=plan)
    gis = make_gis()
    degraded = gis.query(SUPERSET, options)
    assert not degraded.complete
    stats = gis.fragment_cache.stats()
    assert stats["admissions"] == 0
    # The next (healthy) run must go to the source and see all rows.
    healthy = gis.query(SUPERSET)
    assert healthy.metrics.bytes_shipped > 0
    assert_bit_identical(
        healthy, make_gis(fragment_cache_bytes=0).query(SUPERSET)
    )


def test_failed_query_admits_nothing():
    plan = FaultPlan.of(seed=3, crm=FaultSpec(fail_connect=10))
    gis = make_gis()
    with pytest.raises(Exception):
        gis.query(SUPERSET, PlannerOptions(faults=plan))
    assert gis.fragment_cache.stats()["admissions"] == 0


def test_midflight_epoch_bump_rejects_admission():
    gis = make_gis()
    planned = gis.plan(SUPERSET)
    exchange = next(
        op for op in planned.physical.walk() if isinstance(op, ExchangeExec)
    )
    ctx = gis._execution_context(None)
    decision = gis.fragment_cache.begin(exchange, ctx)
    assert decision is not None and decision.fill is not None
    filled = decision.fill(
        iter([Page.from_rows([(1, "e", 10.0)]), Page.from_rows([(2, "w", 20.0)])])
    )
    next(filled)  # first page in flight...
    gis.source_epochs.bump("crm")  # ...the source moves...
    for _ in filled:  # ...and the stream still finishes cleanly
        pass
    stats = gis.fragment_cache.stats()
    assert stats["admissions"] == 0
    assert stats["rejected_stale"] == 1
    assert not gis.fragment_cache.would_serve(exchange.fragment)


def test_abandoned_fill_is_not_admitted():
    gis = make_gis()
    planned = gis.plan(SUPERSET)
    exchange = next(
        op for op in planned.physical.walk() if isinstance(op, ExchangeExec)
    )
    ctx = gis._execution_context(None)
    decision = gis.fragment_cache.begin(exchange, ctx)
    filled = decision.fill(
        iter([Page.from_rows([(1, "e", 10.0)]), Page.from_rows([(2, "w", 20.0)])])
    )
    next(filled)
    filled.close()  # consumer abandoned mid-stream (LIMIT, error, deadline)
    assert gis.fragment_cache.stats()["admissions"] == 0


# ---------------------------------------------------------------------------
# materialized views
# ---------------------------------------------------------------------------


def test_materialized_view_serves_with_zero_network():
    gis = make_gis()
    status = gis.query(
        "CREATE MATERIALIZED VIEW east5 WITH STALENESS 60000 AS "
        "SELECT id, score FROM customers WHERE region = 'east' AND score > 5"
    )
    assert "created" in status.rows[0][0]
    result = gis.query("SELECT COUNT(*) FROM east5")
    assert result.metrics.network.materialized_view_hits == 1
    assert result.metrics.bytes_shipped == 0.0
    oracle = make_gis(fragment_cache_bytes=0).query(
        "SELECT COUNT(*) FROM customers "
        "WHERE region = 'east' AND score > 5"
    )
    assert result.scalar() == oracle.scalar()


def test_materialized_view_staleness_and_refresh():
    gis = make_gis()
    gis.query(
        "CREATE MATERIALIZED VIEW snap AS SELECT id FROM customers "
        "WHERE score > 100"
    )
    assert gis.materialized.fresh("snap")
    gis.notify_source_changed("crm")
    # staleness 0: any bump makes it stale; queries fall back to expansion
    assert not gis.materialized.fresh("snap")
    fallback = gis.query("SELECT COUNT(*) FROM snap")
    assert fallback.metrics.network.materialized_view_hits == 0
    assert fallback.metrics.bytes_shipped > 0
    gis.query("REFRESH MATERIALIZED VIEW snap")
    assert gis.materialized.fresh("snap")
    again = gis.query("SELECT COUNT(*) FROM snap")
    assert again.metrics.network.materialized_view_hits == 1


def test_materialized_view_staleness_window_keeps_serving():
    gis = make_gis()
    gis.query(
        "CREATE MATERIALIZED VIEW windowed WITH STALENESS 600000 AS "
        "SELECT id FROM customers WHERE score > 100"
    )
    gis.notify_source_changed("crm")
    # Bumped, but the first invalidating bump is well inside the window.
    assert gis.materialized.fresh("windowed")
    result = gis.query("SELECT COUNT(*) FROM windowed")
    assert result.metrics.network.materialized_view_hits == 1


def test_materialized_view_ddl_roundtrip_and_errors():
    gis = make_gis()
    gis.query("CREATE MATERIALIZED VIEW mv1 AS SELECT id FROM customers")
    with pytest.raises(CatalogError):
        gis.query("CREATE MATERIALIZED VIEW mv1 AS SELECT id FROM customers")
    dropped = gis.query("DROP MATERIALIZED VIEW mv1")
    assert "dropped" in dropped.rows[0][0]
    with pytest.raises(CatalogError):
        gis.query("REFRESH MATERIALIZED VIEW mv1")
    with pytest.raises(ParseError):
        gis.query("CREATE MATERIALIZED VIEW broken WITH STALENESS x AS SELECT 1")


def test_materialized_view_results_stay_out_of_plan_cache():
    gis = make_gis(plan_cache_size=8)
    gis.query("CREATE MATERIALIZED VIEW mv AS SELECT id FROM customers")
    first = gis.query("SELECT COUNT(*) FROM mv")
    assert first.metrics.network.materialized_view_hits == 1
    second = gis.query("SELECT COUNT(*) FROM mv")
    # Spliced from the snapshot again — never from a cached plan, whose
    # epoch invalidation cannot see the staleness clock.
    assert not second.metrics.network.plan_cache_hit
    assert second.metrics.network.materialized_view_hits == 1


def test_refresh_refuses_partial_snapshots():
    plan = FaultPlan.of(seed=1, crm=FaultSpec(fail_connect=50))
    gis = make_gis(
        options=PlannerOptions(on_source_failure="partial"), faults=plan
    )
    with pytest.raises((ExecutionError,)):
        gis.create_materialized_view("mv", "SELECT id FROM customers")
    # The failed CREATE must leave no debris behind.
    assert not gis.materialized.has("mv")
    assert not gis.catalog.has_table("mv")


def test_prepared_statements_bypass_snapshots():
    gis = make_gis()
    gis.query("CREATE MATERIALIZED VIEW mv AS SELECT id FROM customers")
    prepared = gis.prepare("SELECT COUNT(*) FROM mv")
    result = prepared.execute()
    assert result.metrics.network.materialized_view_hits == 0


def test_parse_utility_fast_path_and_syntax():
    assert parse_utility("SELECT 1") is None
    assert parse_utility("  select * from t") is None
    created = parse_utility(
        "CREATE MATERIALIZED VIEW v WITH STALENESS 2500 AS SELECT 1;"
    )
    assert created.kind == "create_materialized"
    assert created.name == "v"
    assert created.staleness_ms == 2500.0
    assert created.select_sql == "SELECT 1"
    refreshed = parse_utility("refresh materialized view V2")
    assert refreshed.kind == "refresh_materialized" and refreshed.name == "V2"
    with pytest.raises(ParseError):
        parse_utility("CREATE TABLE t (x INT)")


# ---------------------------------------------------------------------------
# plan-cache key normalization (the spurious-miss bugfix) + stats
# ---------------------------------------------------------------------------


def test_plan_cache_ignores_execution_only_knobs():
    gis = make_gis(fragment_cache_bytes=0, plan_cache_size=8)
    sql = "SELECT COUNT(*) FROM customers"
    base = PlannerOptions()
    gis.query(sql, base)
    for variant in (
        base.but(on_source_failure="partial"),
        base.but(hedge_fragments=True),
        base.but(deadline_ms=60000.0),
        base.but(trace=True),
        base.but(max_parallel_fragments=4),
        base.but(fragment_timeout_ms=100),
        base.but(breaker_failure_threshold=3),
        base.but(retry_backoff_ms=5),
        base.but(batch_size=7),
    ):
        hit = gis.query(sql, variant)
        assert hit.metrics.network.plan_cache_hit, variant
    stats = gis.plan_cache.stats()
    assert stats["hits"] == 9 and stats["misses"] == 1
    assert stats["entries"] == 1


#: A valid non-default value for every execution-only option.
EXECUTION_ONLY_VALUES = {
    "max_parallel_fragments": 4,
    "max_parallel_per_source": 1,
    "fragment_timeout_ms": 100.0,
    "retry_backoff_ms": 5.0,
    "retry_backoff_multiplier": 3.0,
    "retry_backoff_max_ms": 50.0,
    "retry_jitter": 0.5,
    "breaker_failure_threshold": 3,
    "breaker_reset_ms": 10.0,
    "batch_size": 7,
    "trace": True,
    "deadline_ms": 60000.0,
    "on_source_failure": "partial",
    "faults": FaultPlan.of(erp=FaultSpec(latency_ms=1.0)),
    "adaptive_timeout": True,
    "timeout_multiplier": 5.0,
    "timeout_floor_ms": 10.0,
    "timeout_ceiling_ms": 1000.0,
    "hedge_fragments": True,
    "hedge_delay_ms": 5.0,
    "hedge_quantile": 0.5,
    "health_routing": True,
}

MASK_QUERIES = (
    "SELECT c.name, o.total FROM customers c JOIN orders o "
    "ON c.id = o.cust_id WHERE o.total > 50",
    "SELECT id FROM everyone WHERE id < 4",
    "SELECT region, COUNT(*), SUM(balance) FROM customers GROUP BY region",
)


def test_execution_only_values_cover_the_mask():
    assert set(EXECUTION_ONLY_VALUES) == set(EXECUTION_ONLY_OPTIONS)
    for name, value in EXECUTION_ONLY_VALUES.items():
        assert value != getattr(PlannerOptions(), name), name


@pytest.mark.parametrize("name", EXECUTION_ONLY_OPTIONS)
def test_execution_only_option_never_changes_the_plan(name):
    """The plan cache serves one plan to every request with the same
    ``plan_key()``, so a field in the mask must not shape any plan."""
    from .conftest import make_small_gis

    gis = make_small_gis()
    gis.create_view(
        "everyone",
        "SELECT id FROM customers UNION ALL SELECT cust_id FROM orders",
    )
    for base in (PlannerOptions(), PlannerOptions(semijoin="force")):
        variant = base.but(**{name: EXECUTION_ONLY_VALUES[name]})
        assert variant.plan_key() == base.plan_key()
        for sql in MASK_QUERIES:
            assert gis.plan(sql, variant).explain() == \
                gis.plan(sql, base).explain(), (name, sql)


def test_forced_semijoin_plans_a_bind_join():
    from .conftest import make_small_gis

    explain = make_small_gis().plan(
        MASK_QUERIES[0], PlannerOptions(semijoin="force")
    ).explain()
    assert "BindJoin" in explain


def test_plan_cache_still_keys_on_plan_shaping_knobs():
    gis = make_gis(fragment_cache_bytes=0, plan_cache_size=8)
    sql = "SELECT COUNT(*) FROM customers"
    gis.query(sql, PlannerOptions())
    miss = gis.query(sql, PlannerOptions(pushdown="scans-only"))
    assert not miss.metrics.network.plan_cache_hit


def test_cache_metrics_reach_the_registry():
    from repro.obs import Observability

    gis = make_gis(observability=Observability(metrics=True))
    sql = "SELECT id FROM customers WHERE score > 10"
    gis.query(sql)
    gis.query(sql)  # fragment-cache hit
    snapshot = gis.obs.registry.snapshot()
    counters = snapshot["counters"]
    assert counters["fragment_cache_misses_total"] == 1
    assert counters["fragment_cache_hits_total"] == 1
    gauges = snapshot["gauges"]
    assert gauges["fragment_cache.hits"] == 1.0
    assert gauges["fragment_cache.entries"] == 1.0
