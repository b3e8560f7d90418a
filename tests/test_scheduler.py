"""The parallel fragment scheduler and its robustness envelope.

Covers: parallel/sequential result equivalence, the exponential backoff
schedule, no-progress timeouts against hanging sources, circuit-breaker
state transitions (unit and integrated), replica fallback with an open
breaker, and thread safety of the mediator under concurrent queries.
"""

import threading
import time
from typing import Iterator

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    PlannerOptions,
    SourceError,
)
from repro.catalog.schema import schema_from_pairs
from repro.core.fragments import Fragment
from repro.core import scheduler as scheduler_module
from repro.core.scheduler import (
    CircuitBreaker,
    CircuitBreakerRegistry,
    FragmentScheduler,
    retry_delay_ms,
)
from repro.workloads.tpch_lite import build_partitioned_orders


SCHEMA = schema_from_pairs("t", [("a", "INT"), ("b", "TEXT")])
ROWS = [(i, f"v{i}") for i in range(50)]

PARALLEL = PlannerOptions(max_parallel_fragments=8)


class FlakySource(MemorySource):
    """Fails the first N execute() calls before yielding anything."""

    def __init__(self, name, failures=1):
        super().__init__(name)
        self.failures_left = failures
        self.execute_calls = 0

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.execute_calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise SourceError(self.name, "transient outage")
        yield from super().execute(fragment)


class HangingSource(MemorySource):
    """Blocks inside execute() until released (a hung component system)."""

    def __init__(self, name, hang_s=5.0):
        super().__init__(name)
        self.hang_s = hang_s
        self.released = threading.Event()
        self.execute_calls = 0

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.execute_calls += 1
        self.released.wait(timeout=self.hang_s)
        yield from super().execute(fragment)


class BrokenSource(MemorySource):
    """Every execute() fails (a down component system)."""

    def __init__(self, name):
        super().__init__(name)
        self.execute_calls = 0

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.execute_calls += 1
        raise SourceError(self.name, "connection refused")
        yield  # pragma: no cover - makes this a generator


def build(source, retries=0, options=None, **gis_kwargs):
    gis = GlobalInformationSystem(
        fragment_retries=retries, options=options, **gis_kwargs
    )
    source.add_table("t", SCHEMA, ROWS)
    gis.register_source(source.name, source)
    gis.register_table("t", source=source.name)
    return gis


def capture_sleeps(monkeypatch):
    """Patch the scheduler's sleep hook; returns the recorded delays (s)."""
    sleeps = []
    monkeypatch.setattr(scheduler_module, "_default_sleep", sleeps.append)
    return sleeps


# ---------------------------------------------------------------------------
# parallel execution equivalence
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    def test_partitioned_union_bit_identical(self):
        federation = build_partitioned_orders(4, 100, seed=42)
        gis = federation.gis
        sql = "SELECT o_id, o_total FROM orders_all WHERE o_total > 500"
        sequential = gis.query(sql)
        parallel = gis.query(sql, PARALLEL)
        assert parallel.rows == sequential.rows
        assert len(sequential.rows) > 0
        assert sequential.metrics.network.scheduler_mode == "sequential"
        assert parallel.metrics.network.scheduler_mode == "parallel(8)"

    def test_fragment_accounting_matches_sequential(self):
        federation = build_partitioned_orders(4, 50, seed=7)
        gis = federation.gis
        sql = "SELECT COUNT(*) FROM orders_all"
        sequential = gis.query(sql)
        parallel = gis.query(sql, PARALLEL)
        seq_net = sequential.metrics.network
        par_net = parallel.metrics.network
        assert par_net.fragments_executed == seq_net.fragments_executed
        assert par_net.rows_shipped == seq_net.rows_shipped
        assert par_net.messages == seq_net.messages
        assert par_net.bytes_shipped == seq_net.bytes_shipped

    def test_parallel_critical_path_beats_sequential_sum(self):
        # A shared barrier forces all four shard fetches to be in flight
        # simultaneously, making the peak-concurrency assertion exact.
        barrier = threading.Barrier(4)

        class BarrierAdapter:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, item):
                return getattr(self._inner, item)

            def execute(self, fragment):
                barrier.wait(timeout=10)
                yield from self._inner.execute(fragment)

            def execute_pages(self, fragment, page_rows):
                barrier.wait(timeout=10)
                yield from self._inner.execute_pages(fragment, page_rows)

        federation = build_partitioned_orders(
            4, 100, seed=42, adapter_wrapper=BarrierAdapter
        )
        gis = federation.gis
        result = gis.query("SELECT o_id FROM orders_all", PARALLEL)
        net = result.metrics.network
        assert net.parallel_ms > 0
        assert net.parallel_ms < net.network_ms  # overlap actually helped
        assert net.fragments_in_flight_peak == 4

    def test_join_and_aggregate_equivalence(self):
        federation = build_partitioned_orders(4, 100, seed=9)
        gis = federation.gis
        sql = (
            "SELECT o_status, COUNT(*), SUM(o_total) FROM orders_all "
            "GROUP BY o_status ORDER BY o_status"
        )
        assert gis.query(sql, PARALLEL).rows == gis.query(sql).rows

    def test_explain_is_the_same_at_every_degree(self):
        # The fetch degree is a runtime choice of the scheduler; it shapes
        # neither the plan nor its EXPLAIN text.
        federation = build_partitioned_orders(2, 10, seed=1)
        sql = "SELECT o_id FROM orders_all"
        explain = federation.gis.explain(sql, PARALLEL)
        assert "parallel" not in explain
        assert explain == federation.gis.explain(sql)

    def test_timeout_only_mode_labeled(self):
        gis = build(MemorySource("mem"))
        result = gis.query(
            "SELECT COUNT(*) FROM t",
            PlannerOptions(fragment_timeout_ms=5000),
        )
        assert result.scalar() == len(ROWS)
        assert result.metrics.network.scheduler_mode == "sequential+timeout"

    def test_semijoin_batches_parallel_equivalence(self):
        # A bind join against a second source exercises submit_fragment.
        gis = GlobalInformationSystem()
        left = MemorySource("left")
        left.add_table("probe", schema_from_pairs("probe", [("k", "INT")]),
                       [(i,) for i in range(0, 40, 2)])
        right = MemorySource("right")
        right.add_table("t", SCHEMA, ROWS)
        gis.register_source("left", left)
        gis.register_source("right", right)
        gis.register_table("probe", source="left")
        gis.register_table("t", source="right")
        sql = (
            "SELECT p.k, t.b FROM probe p JOIN t ON p.k = t.a "
            "ORDER BY p.k"
        )
        force = PlannerOptions(semijoin="force")
        sequential = gis.query(sql, force)
        parallel = gis.query(sql, force.but(max_parallel_fragments=4))
        assert parallel.rows == sequential.rows
        assert parallel.metrics.network.semijoin_batches == \
            sequential.metrics.network.semijoin_batches


# ---------------------------------------------------------------------------
# retry backoff
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_schedule_with_cap(self):
        options = PlannerOptions(
            retry_backoff_ms=50, retry_backoff_multiplier=2.0,
            retry_backoff_max_ms=120.0,
        )
        assert [retry_delay_ms(options, n) for n in (1, 2, 3)] == [50, 100, 120]

    def test_zero_backoff_retries_immediately(self):
        options = PlannerOptions()
        assert retry_delay_ms(options, 1) == 0.0
        assert retry_delay_ms(options, 2) == 0.0

    def test_jitter_bounds(self):
        import random

        plain = PlannerOptions(retry_backoff_ms=100)
        jittered = plain.but(retry_jitter=0.25)
        rng = random.Random(123)
        for attempt in (1, 2, 3):
            delay = retry_delay_ms(jittered, attempt, rng)
            base = retry_delay_ms(plain, attempt)
            assert base * 0.75 <= delay <= base * 1.25


class TestBackoffIntegration:
    def test_sequential_mode_sleeps_backoff_schedule(self, monkeypatch):
        sleeps = capture_sleeps(monkeypatch)
        source = FlakySource("flaky", failures=2)
        gis = build(source, retries=3)
        result = gis.query(
            "SELECT COUNT(*) FROM t",
            PlannerOptions(retry_backoff_ms=40, retry_backoff_multiplier=2.0),
        )
        assert result.scalar() == len(ROWS)
        assert source.execute_calls == 3
        assert [round(s * 1000) for s in sleeps] == [40, 80]

    def test_parallel_mode_sleeps_backoff_schedule(self, monkeypatch):
        sleeps = capture_sleeps(monkeypatch)
        source = FlakySource("flaky", failures=2)
        gis = build(source, retries=3)
        result = gis.query(
            "SELECT COUNT(*) FROM t",
            PlannerOptions(
                max_parallel_fragments=4,
                retry_backoff_ms=40,
                retry_backoff_multiplier=2.0,
            ),
        )
        assert result.scalar() == len(ROWS)
        assert source.execute_calls == 3
        assert [round(s * 1000) for s in sleeps] == [40, 80]
        assert result.metrics.network.fragment_retries == 2

    def test_no_backoff_by_default(self, monkeypatch):
        sleeps = capture_sleeps(monkeypatch)
        gis = build(FlakySource("flaky", failures=1), retries=1)
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == len(ROWS)
        assert sleeps == []

    def test_retries_exhausted_raises_in_parallel_mode(self):
        gis = build(FlakySource("flaky", failures=5), retries=2)
        with pytest.raises(SourceError, match="transient"):
            gis.query("SELECT COUNT(*) FROM t", PARALLEL)


# ---------------------------------------------------------------------------
# timeouts
# ---------------------------------------------------------------------------


class TestFragmentTimeout:
    def test_hanging_source_trips_timeout(self):
        source = HangingSource("hung", hang_s=30.0)
        gis = build(source)
        started = time.perf_counter()
        with pytest.raises(SourceError, match="no progress"):
            gis.query(
                "SELECT COUNT(*) FROM t",
                PlannerOptions(fragment_timeout_ms=150),
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # did not wait out the 30 s hang
        source.released.set()  # unblock the abandoned worker

    def test_healthy_source_unaffected_by_timeout(self):
        gis = build(MemorySource("mem"))
        result = gis.query(
            "SELECT COUNT(*) FROM t",
            PlannerOptions(max_parallel_fragments=4, fragment_timeout_ms=5000),
        )
        assert result.scalar() == len(ROWS)

    def test_timeout_failure_counts_toward_breaker(self):
        source = HangingSource("hung", hang_s=30.0)
        gis = build(source)
        options = PlannerOptions(
            fragment_timeout_ms=100, breaker_failure_threshold=1
        )
        with pytest.raises(SourceError, match="no progress"):
            gis.query("SELECT COUNT(*) FROM t", options)
        breaker = gis.breakers.get("hung")
        assert breaker is not None
        assert breaker.state == "open"
        source.released.set()


# ---------------------------------------------------------------------------
# circuit breaker unit behavior
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_open_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        assert breaker.state == "closed"
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third consecutive failure trips
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trip_count == 1

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # count restarted
        assert breaker.state == "closed"

    def test_half_open_after_reset_period(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_ms=1000,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.5)
        assert breaker.state == "open"
        clock.advance(0.6)
        assert breaker.state == "half-open"

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_ms=1000,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent callers stay blocked

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_ms=1000,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_ms=1000,
                                 clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        assert breaker.record_failure()  # half-open failure trips again
        assert breaker.state == "open"
        assert breaker.trip_count == 2
        assert not breaker.allow()

    def test_registry_shares_and_namespaces(self):
        registry = CircuitBreakerRegistry()
        a = registry.breaker_for("ERP", 3, 1000)
        assert registry.breaker_for("erp", 3, 1000) is a
        assert registry.get("erp") is a
        assert registry.get("other") is None
        a.record_failure()
        a.record_failure()
        a.record_failure()
        assert registry.trip_count() == 1


# ---------------------------------------------------------------------------
# breaker integration: fail fast & replica fallback
# ---------------------------------------------------------------------------


def breaker_options(**overrides):
    defaults = dict(breaker_failure_threshold=2, breaker_reset_ms=60000.0)
    defaults.update(overrides)
    return PlannerOptions(**defaults)


class TestBreakerIntegration:
    def test_repeated_failures_fail_fast(self):
        source = BrokenSource("down")
        gis = build(source)
        options = breaker_options()
        for _ in range(2):
            with pytest.raises(SourceError):
                gis.query("SELECT COUNT(*) FROM t", options)
        assert gis.breakers.get("down").state == "open"
        calls_when_tripped = source.execute_calls
        with pytest.raises(SourceError, match="circuit breaker open"):
            gis.query("SELECT COUNT(*) FROM t", options)
        # Fail-fast: the source was never touched after the trip.
        assert source.execute_calls == calls_when_tripped

    def test_breaker_trip_recorded_in_metrics(self):
        gis = build(BrokenSource("down"), retries=2)
        options = breaker_options(breaker_failure_threshold=2)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t", options)
        # The in-query retries crossed the threshold: trip recorded even
        # though the query itself failed... via the registry.
        assert gis.breakers.get("down").trip_count == 1

    def test_parallel_mode_fail_fast(self):
        source = BrokenSource("down")
        gis = build(source)
        options = breaker_options(max_parallel_fragments=4)
        for _ in range(2):
            with pytest.raises(SourceError):
                gis.query("SELECT COUNT(*) FROM t", options)
        with pytest.raises(SourceError, match="circuit breaker open"):
            gis.query("SELECT COUNT(*) FROM t", options)

    def _replica_federation(self, primary):
        """``t`` on a failing primary with a healthy replica on ``backup``."""
        gis = GlobalInformationSystem(fragment_retries=1)
        primary.add_table("t", SCHEMA, ROWS)
        backup = MemorySource("backup")
        backup.add_table("t_copy", SCHEMA, ROWS)
        gis.register_source(primary.name, primary)
        gis.register_source("backup", backup)
        gis.register_table("t", source=primary.name)
        gis.register_replica("t", source="backup", remote_table="t_copy")
        return gis

    def test_open_breaker_falls_back_to_replica(self):
        primary = BrokenSource("down")
        gis = self._replica_federation(primary)
        # Keep the planner pinned to the primary so the fallback is the
        # runtime's doing, not the replica selector's.
        options = breaker_options(
            breaker_failure_threshold=1, replicas="primary"
        )
        result = gis.query("SELECT a, b FROM t ORDER BY a", options)
        assert result.rows == sorted(ROWS)
        net = result.metrics.network
        assert net.breaker_trips == 1
        assert net.breaker_fallbacks == 1
        assert gis.breakers.get("down").state == "open"

    def test_replica_fallback_in_parallel_mode(self):
        primary = BrokenSource("down")
        gis = self._replica_federation(primary)
        options = breaker_options(
            breaker_failure_threshold=1,
            replicas="primary",
            max_parallel_fragments=4,
        )
        result = gis.query("SELECT a, b FROM t ORDER BY a", options)
        assert result.rows == sorted(ROWS)
        assert result.metrics.network.breaker_fallbacks == 1

    def test_summary_reports_breaker_activity(self):
        primary = BrokenSource("down")
        gis = self._replica_federation(primary)
        options = breaker_options(
            breaker_failure_threshold=1, replicas="primary"
        )
        result = gis.query("SELECT COUNT(*) FROM t", options)
        assert "circuit breakers: 1 trips, 1 replica fallbacks" in \
            result.metrics.summary()


# ---------------------------------------------------------------------------
# executor choice (from the query's options)
# ---------------------------------------------------------------------------


class TestSchedulerConfig:
    def test_sequential_default_is_unscheduled(self):
        assert FragmentScheduler(PlannerOptions()).mode == "sequential"

    def test_parallel_and_timeout_schedule(self):
        assert FragmentScheduler(PARALLEL).mode == "parallel(8)"
        assert FragmentScheduler(
            PlannerOptions(fragment_timeout_ms=100)
        ).mode == "sequential+timeout"


# ---------------------------------------------------------------------------
# thread safety
# ---------------------------------------------------------------------------


class TestThreadSafety:
    def test_concurrent_queries_through_one_mediator(self):
        federation = build_partitioned_orders(4, 50, seed=3)
        gis = federation.gis
        sql = "SELECT o_id, o_total FROM orders_all WHERE o_total > 500"
        expected = gis.query(sql).rows
        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                options = PARALLEL if slot % 2 else None
                results[slot] = gis.query(sql, options).rows
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(rows == expected for rows in results)
