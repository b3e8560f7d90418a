"""Tail tolerance: health tracking, adaptive timeouts, hedged fetches.

The federation's latency tail lives in its slowest component system, and
the only countermeasures available to a mediator are the ones these
tests pin down: a per-source health registry (latency quantiles, EWMA,
error rates), no-progress timeouts derived from the observed p99 instead
of a fixed guess, duplicate ("hedged") fetches raced against a
straggling primary, and proactive health-aware routing at dispatch.

The correctness bar for every speed-up is bit-identity: hedged and
rerouted executions must return exactly the rows unhedged execution
returns, charge their duplicate traffic honestly under ``hedges_*``
metrics, and compose with deadlines, partial results, and the fragment
cache without weakening any of their guarantees.
"""

import threading
import time
from typing import Iterator

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    GlobalInformationSystem,
    MemorySource,
    PlannerOptions,
    SourceError,
)
from repro.catalog.schema import schema_from_pairs
from repro.config import build_from_config
from repro.core.fragments import Fragment
from repro.core.health import (
    MIN_SAMPLES,
    SourceHealth,
    SourceHealthRegistry,
)
from repro.core.scheduler import FragmentScheduler
from repro.errors import CatalogError, PlanError, QueryTimeoutError
from repro.sources import faults as faults_module

SCHEMA = schema_from_pairs("t", [("a", "INT"), ("b", "TEXT")])
ROWS = [(i, f"v{i}") for i in range(60)]


class HangingSource(MemorySource):
    """Blocks inside execute() until released (a hung component system)."""

    def __init__(self, name, hang_s=5.0):
        super().__init__(name)
        self.hang_s = hang_s
        self.released = threading.Event()

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.released.wait(timeout=self.hang_s)
        yield from super().execute(fragment)


def replica_federation(page_rows=16, **gis_kwargs):
    """``t`` on ``primary`` with an identical replica on ``backup``."""
    gis = GlobalInformationSystem(**gis_kwargs)
    primary = MemorySource("primary", page_rows=page_rows)
    primary.add_table("t", SCHEMA, ROWS)
    backup = MemorySource("backup", page_rows=page_rows)
    backup.add_table("t_copy", SCHEMA, ROWS)
    gis.register_source("primary", primary)
    gis.register_source("backup", backup)
    gis.register_table("t", source="primary")
    gis.register_replica("t", source="backup", remote_table="t_copy")
    return gis


def straggler_plan(straggle_ms, seed=7, **spec_kwargs):
    """A fault plan that stalls (only) the primary's pages in wall-clock."""
    return FaultPlan.of(
        seed=seed,
        primary=FaultSpec(straggle_ms=straggle_ms, **spec_kwargs),
    )


# ---------------------------------------------------------------------------
# the health registry
# ---------------------------------------------------------------------------


class TestSourceHealth:
    def test_ewma_tracks_latency_stream(self):
        health = SourceHealth(alpha=0.5)
        for ms in (10.0, 20.0):
            health.observe_latency(ms)
        assert health.ewma_ms == pytest.approx(15.0)
        assert health.samples == 2

    def test_quantiles_are_nearest_rank_over_the_window(self):
        health = SourceHealth()
        for ms in range(1, 101):
            health.observe_latency(float(ms))
        assert health.quantile(0.50) == 51.0
        assert health.quantile(0.95) == 96.0
        assert health.quantile(0.99) == 100.0
        assert health.quantile(0.0) == 1.0

    def test_window_is_bounded_and_forgets_old_regimes(self):
        health = SourceHealth(window=4)
        for ms in (1000.0, 1000.0, 1.0, 1.0, 1.0, 1.0):
            health.observe_latency(ms)
        # The slow regime has rolled out of the window entirely.
        assert health.quantile(0.99) == 1.0

    def test_quantile_empty_is_none(self):
        assert SourceHealth().quantile(0.99) is None
        assert SourceHealth().score() is None

    def test_error_rate_over_recent_outcomes(self):
        health = SourceHealth()
        for _ in range(3):
            health.record_success()
        health.record_error()
        assert health.error_rate() == pytest.approx(0.25)
        assert health.errors == 1 and health.successes == 3

    def test_score_inflates_latency_by_error_rate(self):
        health = SourceHealth(alpha=1.0)
        health.observe_latency(10.0)
        assert health.score() == pytest.approx(10.0)
        health.record_error()
        # rate 1.0 -> 10 * (1 + 4) = 50: a flaky source scores far worse.
        assert health.score() == pytest.approx(50.0)

    def test_hedge_counters(self):
        health = SourceHealth()
        health.record_hedge(won=True)
        health.record_hedge(won=False)
        assert health.hedges_launched == 2
        assert health.hedges_won == 1


class TestSourceHealthRegistry:
    def test_trackers_are_lazy_and_case_insensitive(self):
        registry = SourceHealthRegistry()
        registry.observe_latency("ERP", 5.0)
        assert registry.get("erp") is registry.health_for("Erp")
        assert registry.quantile("erp", 0.5) == 5.0

    def test_adaptive_timeout_cold_is_none(self):
        registry = SourceHealthRegistry()
        for _ in range(MIN_SAMPLES - 1):
            registry.observe_latency("erp", 10.0)
        assert registry.adaptive_timeout_ms("erp", 3.0, 50.0, 30000.0) is None
        assert registry.adaptive_timeout_ms("ghost", 3.0, 50.0, 30000.0) is None

    def test_adaptive_timeout_is_clamped_multiple_of_p99(self):
        registry = SourceHealthRegistry()
        for _ in range(MIN_SAMPLES):
            registry.observe_latency("erp", 100.0)
        # 3 * p99 = 300, inside the clamp.
        assert registry.adaptive_timeout_ms("erp", 3.0, 50.0, 30000.0) == 300.0
        # Floor and ceiling both bind.
        assert registry.adaptive_timeout_ms("erp", 3.0, 500.0, 30000.0) == 500.0
        assert registry.adaptive_timeout_ms("erp", 3.0, 50.0, 120.0) == 120.0

    def test_hedge_delay_uses_quantile_with_static_floor(self):
        registry = SourceHealthRegistry()
        assert registry.hedge_delay_ms("erp", 0.95, 40.0) == 40.0  # cold
        for _ in range(MIN_SAMPLES):
            registry.observe_latency("erp", 90.0)
        assert registry.hedge_delay_ms("erp", 0.95, 40.0) == 90.0
        # The static delay is a floor: a fast source cannot drive the
        # hedge delay (and duplicate traffic) toward zero.
        registry2 = SourceHealthRegistry()
        for _ in range(MIN_SAMPLES):
            registry2.observe_latency("erp", 1.0)
        assert registry2.hedge_delay_ms("erp", 0.95, 40.0) == 40.0

    def test_snapshot_shape(self):
        registry = SourceHealthRegistry()
        registry.observe_latency("erp", 10.0)
        registry.record_success("erp")
        registry.record_hedge("erp", won=True)
        snap = registry.snapshot()["erp"]
        assert snap["samples"] == 1
        assert snap["p99_ms"] == 10.0
        assert snap["successes"] == 1
        assert snap["hedges_won"] == 1

    def test_remove_and_reset_forget_state(self):
        registry = SourceHealthRegistry()
        registry.observe_latency("erp", 10.0)
        assert registry.remove("ERP") is True
        assert registry.remove("erp") is False
        assert registry.get("erp") is None
        registry.observe_latency("erp", 10.0)
        registry.reset()
        assert registry.snapshot() == {}


# ---------------------------------------------------------------------------
# planner options / config plumbing
# ---------------------------------------------------------------------------


class TestTailKnobs:
    def test_tail_options_validated(self):
        with pytest.raises(PlanError):
            PlannerOptions(timeout_multiplier=0.0)
        with pytest.raises(PlanError):
            PlannerOptions(timeout_floor_ms=-1.0)
        with pytest.raises(PlanError):
            PlannerOptions(timeout_floor_ms=100.0, timeout_ceiling_ms=50.0)
        with pytest.raises(PlanError):
            PlannerOptions(hedge_delay_ms=-1.0)
        with pytest.raises(PlanError):
            PlannerOptions(hedge_quantile=1.0)

    def test_hedge_and_adaptive_require_worker_threads(self):
        for options in (
            PlannerOptions(hedge_fragments=True),
            PlannerOptions(adaptive_timeout=True),
        ):
            assert FragmentScheduler(options).mode == "sequential+timeout"

    def test_tail_knobs_do_not_split_plan_cache_keys(self):
        gis = replica_federation(plan_cache_size=8)
        sql = "SELECT a, b FROM t WHERE a > 3"
        gis.query(sql)
        hedged = gis.query(
            sql, PlannerOptions(hedge_fragments=True, hedge_delay_ms=5000.0)
        )
        assert hedged.metrics.network.plan_cache_hit

    def test_config_tail_section_arms_the_knobs(self):
        gis = build_from_config(
            {
                "sources": {
                    "m": {
                        "type": "memory",
                        "tables": {
                            "T": {
                                "columns": [["a", "INT"]],
                                "rows": [[1], [2]],
                            }
                        },
                    }
                },
                "tables": [{"name": "t", "source": "m", "remote_table": "T"}],
                "tail": {
                    "adaptive_timeout": True,
                    "timeout_multiplier": 4.0,
                    "timeout_floor_ms": 25.0,
                    "timeout_ceiling_ms": 1000.0,
                    "hedge": True,
                    "hedge_delay_ms": 75.0,
                    "hedge_quantile": 0.9,
                    "health_routing": True,
                },
            }
        )
        opts = gis.planner.options
        assert opts.adaptive_timeout and opts.hedge_fragments
        assert opts.health_routing
        assert opts.timeout_multiplier == 4.0
        assert opts.timeout_floor_ms == 25.0
        assert opts.timeout_ceiling_ms == 1000.0
        assert opts.hedge_delay_ms == 75.0
        assert opts.hedge_quantile == 0.9
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == 2

    def test_config_tail_section_rejects_unknown_and_bad_keys(self):
        base = {
            "sources": {
                "m": {"type": "memory",
                      "tables": {"T": {"columns": [["a", "INT"]],
                                       "rows": [[1]]}}}
            },
            "tables": [{"name": "t", "source": "m", "remote_table": "T"}],
        }
        with pytest.raises(CatalogError, match="unknown config key"):
            build_from_config({**base, "tail": {"hedge_delay": 10}})
        with pytest.raises(CatalogError, match="must be a boolean"):
            build_from_config({**base, "tail": {"hedge": "yes"}})
        with pytest.raises(CatalogError, match="invalid tail config"):
            build_from_config({**base, "tail": {"hedge_quantile": 2.0}})


# ---------------------------------------------------------------------------
# straggler faults
# ---------------------------------------------------------------------------


class TestStragglerFaults:
    def test_spec_validation(self):
        with pytest.raises(CatalogError):
            FaultSpec(straggle_ms=-1.0)
        with pytest.raises(CatalogError):
            FaultSpec(straggle_jitter_ms=-1.0)
        with pytest.raises(CatalogError):
            FaultSpec(straggle_after_pages=-1)
        with pytest.raises(CatalogError):
            FaultSpec(straggle_rate=1.5)

    def test_injects_stragglers_property(self):
        assert FaultSpec(straggle_ms=10.0).injects_stragglers
        assert FaultSpec(straggle_jitter_ms=10.0).injects_stragglers
        assert not FaultSpec().injects_stragglers
        assert not FaultSpec(straggle_ms=10.0, straggle_rate=0.0).injects_stragglers
        # Stragglers only slow calls; they never fail them.
        assert not FaultSpec(straggle_ms=10.0).injects_failures

    def test_straggle_sleeps_are_real_and_per_page(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(faults_module, "_straggle_sleep", sleeps.append)
        gis = replica_federation(page_rows=16)
        plan = straggler_plan(30.0, straggle_after_pages=2)
        result = gis.query(
            "SELECT a, b FROM t",
            PlannerOptions(faults=plan, replicas="primary"),
        )
        assert result.rows == ROWS
        # 60 rows / 16 per page = 4 pages; the first two are served at
        # full speed, the remaining two each stall once.
        assert len(sleeps) == 2
        assert all(s == pytest.approx(0.030) for s in sleeps)

    def test_straggle_rate_and_jitter_are_seed_deterministic(self, monkeypatch):
        def run(seed):
            sleeps = []
            monkeypatch.setattr(faults_module, "_straggle_sleep", sleeps.append)
            gis = replica_federation(page_rows=8)
            plan = straggler_plan(
                10.0, seed=seed, straggle_jitter_ms=20.0, straggle_rate=0.5
            )
            options = PlannerOptions(faults=plan, replicas="primary")
            for _ in range(4):
                gis.query("SELECT a FROM t WHERE a >= 0", options)
            return sleeps

        first, second = run(3), run(3)
        assert first == second
        assert run(4) != first
        assert all(0.010 <= s < 0.030 for s in first)

    def test_stragglers_do_not_shift_the_failure_schedule(self):
        """Arming stragglers must not consume the failure RNG: the same
        seed produces the same failure pattern with and without them."""

        def failures(spec):
            gis = replica_federation(page_rows=8)
            plan = FaultPlan.of(seed=11, primary=spec)
            options = PlannerOptions(
                faults=plan, replicas="primary", on_source_failure="partial"
            )
            outcomes = []
            for _ in range(6):
                result = gis.query("SELECT COUNT(*) FROM t", options)
                outcomes.append(sorted(result.excluded_sources))
            return outcomes

        plain = failures(FaultSpec(failure_rate=0.5))
        with_stragglers = failures(
            FaultSpec(failure_rate=0.5, straggle_ms=0.5, straggle_rate=0.5)
        )
        assert plain == with_stragglers

    def test_config_parses_straggler_keys(self):
        plan = FaultPlan.from_config(
            {
                "seed": 3,
                "sources": {
                    "erp": {
                        "straggle_ms": 25.0,
                        "straggle_jitter_ms": 5.0,
                        "straggle_after_pages": 1,
                        "straggle_rate": 0.25,
                    }
                },
            }
        )
        spec = plan.spec_for("erp")
        assert spec.straggle_ms == 25.0
        assert spec.straggle_jitter_ms == 5.0
        assert spec.straggle_after_pages == 1
        assert spec.straggle_rate == 0.25
        assert spec.injects_stragglers


# ---------------------------------------------------------------------------
# adaptive no-progress timeouts
# ---------------------------------------------------------------------------


class TestAdaptiveTimeouts:
    def test_adaptive_budget_replaces_the_static_timeout(self):
        """Once warm, the timeout in force is clamp(k * p99, floor, ...)
        — visible in the attributed error message — not the static one."""
        source = HangingSource("hang")
        source.add_table("t", SCHEMA, ROWS)
        gis = GlobalInformationSystem()
        gis.register_source("hang", source)
        gis.register_table("t", source="hang")
        for _ in range(MIN_SAMPLES + 2):
            gis.health.observe_latency("hang", 10.0)
        options = PlannerOptions(
            fragment_timeout_ms=5000.0,
            adaptive_timeout=True,
            timeout_multiplier=3.0,
            timeout_floor_ms=60.0,
            timeout_ceiling_ms=30000.0,
        )
        started = time.monotonic()
        with pytest.raises(SourceError, match="no progress for 60 ms"):
            gis.query("SELECT a FROM t", options)
        # It actually fired at the adaptive budget, not the 5 s static one.
        assert time.monotonic() - started < 2.0
        source.released.set()

    def test_cold_source_falls_back_to_static_timeout(self):
        source = HangingSource("hang", hang_s=2.0)
        source.add_table("t", SCHEMA, ROWS)
        gis = GlobalInformationSystem()
        gis.register_source("hang", source)
        gis.register_table("t", source="hang")
        options = PlannerOptions(
            fragment_timeout_ms=80.0,
            adaptive_timeout=True,
            timeout_floor_ms=50.0,
        )
        with pytest.raises(SourceError, match="no progress for 80 ms"):
            gis.query("SELECT a FROM t", options)
        source.released.set()

    def test_timeouts_feed_the_error_rate(self):
        source = HangingSource("hang", hang_s=2.0)
        source.add_table("t", SCHEMA, ROWS)
        gis = GlobalInformationSystem()
        gis.register_source("hang", source)
        gis.register_table("t", source="hang")
        with pytest.raises(SourceError):
            gis.query(
                "SELECT a FROM t", PlannerOptions(fragment_timeout_ms=60.0)
            )
        assert gis.health.get("hang").errors >= 1
        source.released.set()


# ---------------------------------------------------------------------------
# hedged fragment fetches
# ---------------------------------------------------------------------------


def hedge_options(**overrides):
    defaults = dict(
        hedge_fragments=True, hedge_delay_ms=25.0, replicas="primary"
    )
    defaults.update(overrides)
    return PlannerOptions(**defaults)


class TestHedgedFetches:
    def test_hedge_wins_against_straggling_primary(self):
        gis = replica_federation()
        plan = straggler_plan(400.0)
        unhedged = replica_federation().query(
            "SELECT a, b FROM t", PlannerOptions(replicas="primary")
        )
        started = time.monotonic()
        hedged = gis.query(
            "SELECT a, b FROM t", hedge_options(faults=plan)
        )
        elapsed = time.monotonic() - started
        # Bit-identical rows, far faster than waiting out the straggler.
        assert hedged.rows == unhedged.rows
        assert elapsed < 0.4
        net = hedged.metrics.network
        assert net.hedges_launched == 1
        assert net.hedges_won == 1
        assert net.hedges_cancelled == 1
        assert net.hedges_rows_shipped >= len(ROWS)
        assert gis.health.get("primary").hedges_won == 1

    def test_fast_primary_never_hedges(self):
        gis = replica_federation()
        result = gis.query(
            "SELECT a, b FROM t", hedge_options(hedge_delay_ms=5000.0)
        )
        assert result.rows == ROWS
        net = result.metrics.network
        assert net.hedges_launched == 0
        assert net.hedges_won == 0
        assert net.hedges_rows_shipped == 0

    def test_hedge_without_replica_waits_out_the_primary(self, monkeypatch):
        monkeypatch.setattr(faults_module, "_straggle_sleep", lambda s: None)
        gis = GlobalInformationSystem()
        source = MemorySource("only")
        source.add_table("t", SCHEMA, ROWS)
        gis.register_source("only", source)
        gis.register_table("t", source="only")
        plan = FaultPlan.of(seed=1, only=FaultSpec(straggle_ms=50.0))
        result = gis.query(
            "SELECT a, b FROM t", hedge_options(faults=plan, hedge_delay_ms=1.0)
        )
        assert result.rows == ROWS
        assert result.metrics.network.hedges_launched == 0

    def test_hedge_traffic_is_charged_honestly(self):
        """The duplicate fetch's transfer is charged to the replica that
        served it, included in the totals, and broken out under the
        ``hedges_*`` metrics — never hidden inside the primary's ledger."""
        gis = replica_federation()
        hedged = gis.query(
            "SELECT a, b FROM t",
            hedge_options(faults=straggler_plan(400.0)),
        )
        net = hedged.metrics.network
        # The winning hedge's whole stream is hedge traffic, and it is
        # inside the totals, not in addition to them.
        assert net.hedges_rows_shipped == len(ROWS)
        assert net.rows_shipped >= net.hedges_rows_shipped
        assert net.hedges_bytes_shipped > 0
        ledger = gis.network.per_source()
        assert ledger["backup"].rows == len(ROWS)
        # The cancelled primary was stalled before its first page: it
        # shipped nothing, and nothing was fabricated on its ledger.
        assert "primary" not in ledger or ledger["primary"].rows == 0

    def test_hedged_rows_bit_identical_in_parallel_mode(self):
        sql = "SELECT a, b FROM t WHERE a % 2 = 0 ORDER BY a"
        baseline = replica_federation().query(
            sql, PlannerOptions(replicas="primary")
        )
        gis = replica_federation()
        hedged = gis.query(
            sql,
            hedge_options(
                faults=straggler_plan(300.0), max_parallel_fragments=4
            ),
        )
        assert hedged.rows == baseline.rows
        assert hedged.metrics.network.hedges_won == 1

    def test_hedge_under_deadline_is_a_typed_error(self):
        gis = replica_federation()
        # Both serving sources straggle: the hedge cannot save the query,
        # and the deadline must surface as the typed timeout error.
        plan = FaultPlan.of(
            seed=5,
            primary=FaultSpec(straggle_ms=500.0),
            backup=FaultSpec(straggle_ms=500.0),
        )
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            gis.query(
                "SELECT a, b FROM t",
                hedge_options(faults=plan, hedge_delay_ms=20.0,
                              deadline_ms=150.0),
            )
        assert time.monotonic() - started < 2.0

    def test_hedge_composes_with_fragment_cache(self):
        """A hedged run fills the fragment cache once (the winner's
        stream); the loser admits nothing, and a replay is bit-identical."""
        gis = replica_federation(fragment_cache_bytes=1 << 20)
        options = hedge_options(faults=straggler_plan(300.0))
        sql = "SELECT a, b FROM t"
        first = gis.query(sql, options)
        assert first.metrics.network.hedges_won == 1
        stats = gis.fragment_cache.stats()
        assert stats["entries"] == 1  # exactly one fill: the winner's
        second = gis.query(sql, options)
        assert second.rows == first.rows
        assert second.metrics.network.fragment_cache_hits >= 1
        # The replay never touched a source, so no hedge was launched.
        assert second.metrics.network.hedges_launched == 0

    def test_hedge_loss_is_recorded_when_primary_recovers_first(self):
        gis = replica_federation()
        # The replica is far slower than the primary's small stall: the
        # hedge launches, loses the race, and is cancelled.
        plan = FaultPlan.of(
            seed=2,
            primary=FaultSpec(straggle_ms=60.0, straggle_after_pages=0),
            backup=FaultSpec(straggle_ms=1000.0),
        )
        result = gis.query(
            "SELECT a, b FROM t", hedge_options(faults=plan, hedge_delay_ms=10.0)
        )
        assert result.rows == ROWS
        net = result.metrics.network
        assert net.hedges_launched == 1
        assert net.hedges_won == 0
        assert net.hedges_cancelled == 1
        health = gis.health.get("primary")
        assert health.hedges_launched == 1 and health.hedges_won == 0


# ---------------------------------------------------------------------------
# health-aware routing
# ---------------------------------------------------------------------------


class TestHealthRouting:
    def warm(self, gis, primary_ms, backup_ms):
        for _ in range(MIN_SAMPLES + 2):
            gis.health.observe_latency("primary", primary_ms)
            gis.health.observe_latency("backup", backup_ms)

    @pytest.mark.parametrize("parallel", [1, 4])
    def test_unhealthy_primary_is_rerouted(self, parallel):
        gis = replica_federation()
        self.warm(gis, primary_ms=200.0, backup_ms=2.0)
        result = gis.query(
            "SELECT a, b FROM t",
            PlannerOptions(
                health_routing=True, replicas="primary",
                max_parallel_fragments=parallel,
            ),
        )
        assert result.rows == ROWS
        assert result.metrics.network.health_reroutes == 1
        # The reroute really dispatched to the replica.
        assert gis.network.per_source().get("backup") is not None

    def test_cold_or_marginal_scores_never_reroute(self):
        gis = replica_federation()
        options = PlannerOptions(health_routing=True, replicas="primary")
        # Cold: no observations at all.
        assert gis.query("SELECT a FROM t", options).metrics.network.health_reroutes == 0
        # Marginal: replica better, but within the hysteresis margin.
        self.warm(gis, primary_ms=10.0, backup_ms=9.0)
        result = gis.query("SELECT a FROM t", options)
        assert result.metrics.network.health_reroutes == 0

    def test_reroute_skipped_when_replica_breaker_open(self):
        gis = replica_federation()
        self.warm(gis, primary_ms=200.0, backup_ms=2.0)
        breaker = gis.breakers.breaker_for("backup", 1, 60000.0)
        breaker.record_failure()
        assert breaker.state == "open"
        result = gis.query(
            "SELECT a, b FROM t",
            PlannerOptions(health_routing=True, replicas="primary"),
        )
        assert result.rows == ROWS
        assert result.metrics.network.health_reroutes == 0


# ---------------------------------------------------------------------------
# operator surface
# ---------------------------------------------------------------------------


class TestHealthSurface:
    def test_health_status_merges_quantiles_timeout_and_breaker(self):
        gis = replica_federation()
        for _ in range(MIN_SAMPLES + 2):
            gis.health.observe_latency("primary", 20.0)
        status = gis.health_status(
            PlannerOptions(
                adaptive_timeout=True, timeout_multiplier=3.0,
                timeout_floor_ms=10.0, fragment_timeout_ms=9999.0,
            )
        )
        warm = status["primary"]
        assert warm["p99_ms"] == 20.0
        assert warm["timeout_adaptive"] is True
        assert warm["timeout_ms"] == 60.0
        assert warm["breaker"]["state"] == "closed"
        cold = status["backup"]
        assert cold["samples"] == 0
        assert cold["timeout_adaptive"] is False
        assert cold["timeout_ms"] == 9999.0  # static fallback

    def test_catalog_status_carries_health(self):
        gis = replica_federation()
        assert set(gis.catalog_status()["health"]) == {"primary", "backup"}

    def test_repl_health_shows_quantiles_timeout_and_hedges(self):
        import io

        from repro.repl import Repl

        gis = replica_federation()
        gis.query(
            "SELECT a, b FROM t",
            hedge_options(faults=straggler_plan(300.0)),
        )
        out = io.StringIO()
        Repl(gis, out=out).feed_line("\\health")
        text = out.getvalue()
        assert "primary: breaker closed" in text
        assert "latency ewma" in text and "p99" in text
        assert "hedges 1/1 won" in text

    def test_metrics_registry_aggregates_hedge_counters(self):
        from repro.obs import Observability

        gis = replica_federation(observability=Observability(metrics=True))
        gis.query(
            "SELECT a, b FROM t",
            hedge_options(faults=straggler_plan(300.0)),
        )
        registry = gis.obs.registry
        assert registry.counter("hedges_launched_total").value == 1
        assert registry.counter("hedges_won_total").value == 1
        snapshot = registry.format_snapshot()
        # The replica served the winning stream, so its latency profile
        # is the one with samples to publish; the stalled primary still
        # publishes its hedge counters.
        assert "health.backup.ewma_ms" in snapshot
        assert "health.primary.hedges_launched" in snapshot


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestHealthLifecycle:
    def test_health_state_dies_with_the_source(self):
        gis = replica_federation()
        gis.query(
            "SELECT a, b FROM t",
            hedge_options(faults=straggler_plan(300.0)),
        )
        assert gis.health.get("primary") is not None
        gis.unregister_source("primary")
        assert gis.health.get("primary") is None
        # The promoted replica still answers, cold.
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == len(ROWS)
