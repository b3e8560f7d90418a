"""Fragment retries, fault injection, deadlines, partial results, the cache."""

import time
from typing import Iterator

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    GlobalInformationSystem,
    MemorySource,
    Observability,
    PlannerOptions,
    QueryTimeoutError,
    SourceError,
)
from repro.catalog.schema import schema_from_pairs
from repro.core import scheduler as scheduler_module
from repro.core.fragments import Fragment


class FlakySource(MemorySource):
    """Fails the first N execute() calls before yielding anything."""

    def __init__(self, name, failures=1, fail_midstream=False):
        super().__init__(name)
        self.failures_left = failures
        self.fail_midstream = fail_midstream
        self.execute_calls = 0

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.execute_calls += 1
        if self.fail_midstream:
            yield from self._fail_midstream(fragment)
            return
        if self.failures_left > 0:
            self.failures_left -= 1
            raise SourceError(self.name, "transient outage")
        yield from super().execute(fragment)

    def _fail_midstream(self, fragment: Fragment) -> Iterator[tuple]:
        rows = list(super().execute(fragment))
        # Emit most rows, then die — past the first page, unretryable.
        yield from rows[:-1]
        if self.failures_left > 0:
            self.failures_left -= 1
            raise SourceError(self.name, "mid-stream outage")
        yield rows[-1]


SCHEMA = schema_from_pairs("t", [("a", "INT"), ("b", "TEXT")])
ROWS = [(i, f"v{i}") for i in range(2500)]  # > 1 page at default page size


def build(source, retries=0):
    gis = GlobalInformationSystem(fragment_retries=retries)
    source.add_table("t", SCHEMA, ROWS)
    gis.register_source("flaky", source)
    gis.register_table("t", source="flaky")
    return gis


class TestFragmentRetries:
    def test_no_retries_by_default(self):
        gis = build(FlakySource("flaky", failures=1))
        with pytest.raises(SourceError, match="transient"):
            gis.query("SELECT COUNT(*) FROM t")

    def test_retry_recovers_transient_failure(self):
        source = FlakySource("flaky", failures=1)
        gis = build(source, retries=1)
        result = gis.query("SELECT COUNT(*) FROM t")
        assert result.scalar() == 2500
        assert source.execute_calls == 2
        assert result.metrics.network.fragment_retries == 1

    def test_retries_exhausted_reraises(self):
        gis = build(FlakySource("flaky", failures=3), retries=2)
        with pytest.raises(SourceError):
            gis.query("SELECT COUNT(*) FROM t")

    def test_midstream_failure_never_retried(self):
        # Rows already reached the mediator: a retry would duplicate them.
        source = FlakySource("flaky", failures=1, fail_midstream=True)
        gis = build(source, retries=5)
        with pytest.raises(SourceError, match="mid-stream"):
            gis.query("SELECT a FROM t")
        assert source.execute_calls == 1

    def test_error_attributes_source_name(self):
        gis = build(FlakySource("flaky", failures=1))
        with pytest.raises(SourceError, match="'flaky'"):
            gis.query("SELECT 1 FROM t LIMIT 1")


# ---------------------------------------------------------------------------
# retryable classification
# ---------------------------------------------------------------------------


class PermanentSource(MemorySource):
    """Fails the first N calls with a *permanent* (non-retryable) error."""

    def __init__(self, name, failures=1):
        super().__init__(name)
        self.failures_left = failures
        self.execute_calls = 0

    def execute(self, fragment: Fragment) -> Iterator[tuple]:
        self.execute_calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise SourceError(self.name, "schema mismatch", retryable=False)
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


def capture_sleeps(monkeypatch):
    """Patch the backoff sleep hook; returns the recorded delays (s)."""
    sleeps = []
    monkeypatch.setattr(scheduler_module, "_default_sleep", sleeps.append)
    return sleeps


class TestRetryableClassification:
    def test_retryable_defaults_true(self):
        assert SourceError("s", "boom").retryable is True
        assert SourceError("s", "boom", retryable=False).retryable is False

    def test_permanent_error_not_retried_sequential(self):
        source = PermanentSource("flaky", failures=1)
        gis = build(source, retries=5)
        with pytest.raises(SourceError, match="schema mismatch"):
            gis.query("SELECT COUNT(*) FROM t")
        assert source.execute_calls == 1

    def test_permanent_error_not_retried_parallel(self):
        source = PermanentSource("flaky", failures=1)
        gis = build(source, retries=5)
        with pytest.raises(SourceError, match="schema mismatch"):
            gis.query(
                "SELECT COUNT(*) FROM t",
                PlannerOptions(max_parallel_fragments=4),
            )
        assert source.execute_calls == 1

    def test_transient_still_retried_sequential(self):
        source = FlakySource("flaky", failures=1)
        gis = build(source, retries=1)
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == 2500
        assert source.execute_calls == 2


# ---------------------------------------------------------------------------
# deterministic fault injection
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_connect_fault_recovers_with_retries(self):
        plan = FaultPlan.of(flaky=FaultSpec(fail_connect=1))
        gis = build(MemorySource("flaky"), retries=1)
        result = gis.query("SELECT COUNT(*) FROM t", PlannerOptions(faults=plan))
        assert result.scalar() == 2500
        assert result.metrics.network.fragment_retries == 1

    def test_connect_fault_exhausts_retries(self):
        plan = FaultPlan.of(flaky=FaultSpec(fail_connect=3))
        gis = build(MemorySource("flaky"), retries=1)
        with pytest.raises(SourceError, match="injected fault: connect"):
            gis.query("SELECT COUNT(*) FROM t", PlannerOptions(faults=plan))

    def test_permanent_fault_skips_retries(self):
        plan = FaultPlan.of(flaky=FaultSpec(fail_connect=1, permanent=True))
        gis = build(MemorySource("flaky"), retries=5)
        with pytest.raises(SourceError, match="injected fault"):
            gis.query("SELECT COUNT(*) FROM t", PlannerOptions(faults=plan))
        injector = gis.fault_injector  # none armed at mediator level
        assert injector is None

    def test_midstream_fault_never_retried(self):
        plan = FaultPlan.of(flaky=FaultSpec(fail_after_pages=1))
        gis = build(MemorySource("flaky"), retries=5)
        with pytest.raises(SourceError, match="mid-stream outage"):
            gis.query("SELECT a FROM t", PlannerOptions(faults=plan))

    def test_flapping_recovers_after_k_across_queries(self):
        # Mediator-level plan: the injector persists, so the source heals
        # after two injected failures *spanning* queries.
        plan = FaultPlan.of(flaky=FaultSpec(fail_every=1, recover_after=2))
        gis = GlobalInformationSystem(faults=plan)
        source = MemorySource("flaky")
        source.add_table("t", SCHEMA, ROWS)
        gis.register_source("flaky", source)
        gis.register_table("t", source="flaky")
        for _ in range(2):
            with pytest.raises(SourceError, match="injected fault"):
                gis.query("SELECT COUNT(*) FROM t")
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == 2500
        snap = gis.fault_injector.snapshot()["flaky"]
        assert snap.failures == 2 and snap.calls == 3

    def test_seeded_failure_rate_is_reproducible(self):
        plan = FaultPlan.of(seed=7, flaky=FaultSpec(failure_rate=0.5))

        def outcomes():
            gis = GlobalInformationSystem(faults=plan)
            source = MemorySource("flaky")
            source.add_table("t", SCHEMA, ROWS)
            gis.register_source("flaky", source)
            gis.register_table("t", source="flaky")
            pattern = []
            for _ in range(12):
                try:
                    gis.query("SELECT COUNT(*) FROM t")
                    pattern.append("ok")
                except SourceError:
                    pattern.append("fail")
            return pattern

        first, second = outcomes(), outcomes()
        assert first == second
        assert "ok" in first and "fail" in first

    def test_latency_fault_charges_simulated_network(self):
        gis = build(MemorySource("flaky"))
        baseline = gis.query("SELECT a FROM t")
        plan = FaultPlan.of(flaky=FaultSpec(latency_ms=100.0))
        slow = gis.query("SELECT a FROM t", PlannerOptions(faults=plan))
        assert slow.rows == baseline.rows
        messages = baseline.metrics.network.messages
        expected = baseline.metrics.simulated_ms + 100.0 * messages
        assert slow.metrics.simulated_ms == pytest.approx(expected)

    def test_armed_but_empty_plan_is_bit_identical(self):
        gis = build(MemorySource("flaky"))
        baseline = gis.query("SELECT a FROM t")
        armed = gis.query("SELECT a FROM t", PlannerOptions(faults=FaultPlan()))
        assert armed.rows == baseline.rows
        assert armed.metrics.network.messages == baseline.metrics.network.messages
        assert armed.metrics.simulated_ms == baseline.metrics.simulated_ms
        assert (
            armed.metrics.network.bytes_shipped
            == baseline.metrics.network.bytes_shipped
        )

    def test_parallel_injection_equivalent_to_sequential(self):
        plan = FaultPlan.of(flaky=FaultSpec(fail_connect=1))
        sequential = build(MemorySource("flaky"), retries=1)
        parallel = build(MemorySource("flaky"), retries=1)
        seq = sequential.query("SELECT a FROM t", PlannerOptions(faults=plan))
        par = parallel.query(
            "SELECT a FROM t",
            PlannerOptions(faults=plan, max_parallel_fragments=4),
        )
        assert par.rows == seq.rows
        assert par.metrics.network.fragment_retries == 1


# ---------------------------------------------------------------------------
# query deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_raises_typed_timeout(self):
        gis = build(MemorySource("flaky"))
        with pytest.raises(QueryTimeoutError, match="exceeded its deadline"):
            gis.query("SELECT a FROM t", PlannerOptions(deadline_ms=1e-6))

    def test_timeout_carries_budget_and_elapsed(self):
        gis = build(MemorySource("flaky"))
        try:
            gis.query("SELECT a FROM t", PlannerOptions(deadline_ms=1e-6))
        except QueryTimeoutError as exc:
            assert exc.budget_ms == pytest.approx(1e-6)
            assert exc.elapsed_ms >= 0.0
        else:  # pragma: no cover - the deadline must fire
            pytest.fail("deadline did not fire")

    def test_generous_deadline_is_bit_identical(self):
        gis = build(MemorySource("flaky"))
        baseline = gis.query("SELECT a FROM t")
        bounded = gis.query(
            "SELECT a FROM t", PlannerOptions(deadline_ms=600_000.0)
        )
        assert bounded.rows == baseline.rows
        assert bounded.metrics.simulated_ms == baseline.metrics.simulated_ms
        assert bounded.metrics.network.messages == baseline.metrics.network.messages

    def test_retry_abandoned_when_backoff_exceeds_budget(self, monkeypatch):
        sleeps = capture_sleeps(monkeypatch)
        source = FlakySource("flaky", failures=1)
        gis = build(source, retries=3)
        options = PlannerOptions(
            deadline_ms=1_000.0, retry_backoff_ms=5_000.0
        )
        # The 5 s backoff cannot finish inside the 1 s budget: the retry
        # is abandoned and the *original* error propagates.
        with pytest.raises(SourceError, match="transient outage"):
            gis.query("SELECT COUNT(*) FROM t", options)
        assert source.execute_calls == 1
        assert sleeps == []

    def test_retry_abandoned_in_parallel_mode(self, monkeypatch):
        sleeps = capture_sleeps(monkeypatch)
        source = FlakySource("flaky", failures=1)
        gis = build(source, retries=3)
        options = PlannerOptions(
            deadline_ms=1_000.0,
            retry_backoff_ms=5_000.0,
            max_parallel_fragments=4,
        )
        with pytest.raises(SourceError, match="transient outage"):
            gis.query("SELECT COUNT(*) FROM t", options)
        assert source.execute_calls == 1
        assert sleeps == []

    def test_parallel_deadline_attributes_waited_on_source(self):
        class SlowSource(MemorySource):
            def execute(self, fragment):
                time.sleep(0.5)
                yield from super().execute(fragment)

        gis = build(SlowSource("flaky"))
        options = PlannerOptions(deadline_ms=50.0, max_parallel_fragments=2)
        with pytest.raises(QueryTimeoutError) as info:
            gis.query("SELECT a FROM t", options)
        assert info.value.source_name == "flaky"
        assert "while waiting on source 'flaky'" in str(info.value)

    def test_deadline_counts_planning_time(self, monkeypatch):
        from repro.core.planner import Planner

        plan_statement = Planner.plan_statement

        def slow_plan(self, *args, **kwargs):
            time.sleep(0.05)
            return plan_statement(self, *args, **kwargs)

        monkeypatch.setattr(Planner, "plan_statement", slow_plan)
        gis = build(MemorySource("flaky"))
        # The 20 ms budget covers the whole query, so 50 ms of planning
        # alone exhausts it before the first fetch.
        with pytest.raises(QueryTimeoutError) as info:
            gis.query("SELECT a FROM t", PlannerOptions(deadline_ms=20.0))
        assert info.value.elapsed_ms >= 50.0

    def test_timeout_never_downgraded_to_partial(self):
        gis = build(MemorySource("flaky"))
        options = PlannerOptions(deadline_ms=1e-6, on_source_failure="partial")
        with pytest.raises(QueryTimeoutError):
            gis.query("SELECT a FROM t", options)


# ---------------------------------------------------------------------------
# graceful degradation: partial results
# ---------------------------------------------------------------------------


UNION_SCHEMA = schema_from_pairs("u", [("a", "INT"), ("src", "TEXT")])
UNION_SQL = (
    "SELECT a, src FROM t_s1 UNION ALL "
    "SELECT a, src FROM t_s2 UNION ALL "
    "SELECT a, src FROM t_s3"
)
PARTIAL = PlannerOptions(on_source_failure="partial")


def build_three(dead="s2", retries=0, faults=None):
    """Three single-table sources; ``dead`` (if any) refuses every call."""
    gis = GlobalInformationSystem(fragment_retries=retries, faults=faults)
    for name in ("s1", "s2", "s3"):
        source = BrokenSource(name) if name == dead else MemorySource(name)
        source.add_table(
            f"t_{name}", UNION_SCHEMA, [(i, name) for i in range(4)]
        )
        gis.register_source(name, source)
        gis.register_table(f"t_{name}", source=name)
    return gis


class TestPartialResults:
    def test_fail_mode_raises_attributed_error(self):
        gis = build_three(dead="s2")
        with pytest.raises(SourceError, match="'s2'"):
            gis.query(UNION_SQL)

    def test_one_dead_of_three_degrades(self):
        gis = build_three(dead="s2")
        result = gis.query(UNION_SQL, PARTIAL)
        assert result.complete is False
        assert list(result.excluded_sources) == ["s2"]
        assert "connection refused" in result.excluded_sources["s2"]
        assert sorted(result.rows) == sorted(
            [(i, s) for s in ("s1", "s3") for i in range(4)]
        )

    def test_all_sources_healthy_stays_complete(self):
        gis = build_three(dead=None)
        result = gis.query(UNION_SQL, PARTIAL)
        assert result.complete is True
        assert result.excluded_sources == {}
        assert len(result.rows) == 12

    def test_partial_in_parallel_mode(self):
        gis = build_three(dead="s3")
        result = gis.query(UNION_SQL, PARTIAL.but(max_parallel_fragments=4))
        assert result.complete is False
        assert list(result.excluded_sources) == ["s3"]
        assert sorted(result.rows) == sorted(
            [(i, s) for s in ("s1", "s2") for i in range(4)]
        )

    def test_partial_only_after_retries_exhausted(self):
        source = FlakySource("flaky", failures=1)
        gis = build(source, retries=1)
        result = gis.query("SELECT COUNT(*) FROM t", PARTIAL)
        # The retry recovered the source, so nothing was excluded.
        assert result.complete is True
        assert result.scalar() == 2500

    def test_partial_with_injected_faults(self):
        plan = FaultPlan.of(s1=FaultSpec(fail_connect=99))
        gis = build_three(dead=None)
        result = gis.query(UNION_SQL, PARTIAL.but(faults=plan))
        assert result.complete is False
        assert list(result.excluded_sources) == ["s1"]
        assert "injected fault" in result.excluded_sources["s1"]

    def test_join_with_dead_side_degrades_to_empty(self):
        gis = build_three(dead="s2")
        sql = (
            "SELECT x.a, y.a FROM t_s1 x JOIN t_s2 y ON x.a = y.a"
        )
        result = gis.query(sql, PARTIAL)
        assert result.complete is False
        assert "s2" in result.excluded_sources
        assert result.rows == []

    def test_explain_analyze_reports_exclusions(self):
        gis = build_three(dead="s2")
        text = gis.explain_analyze(UNION_SQL, PARTIAL)
        assert "PARTIAL RESULT" in text
        assert "[s2]" in text

    def test_obs_counters_for_partial(self):
        obs = Observability(metrics=True)
        gis = build_three(dead="s2")
        gis.obs = obs
        gis.query(UNION_SQL, PARTIAL)
        snapshot = obs.registry.snapshot()
        assert snapshot["counters"]["queries_partial_total"] == 1
        assert snapshot["counters"]["sources_excluded_total"] == 1


# ---------------------------------------------------------------------------
# flapping sources under the parallel scheduler
# ---------------------------------------------------------------------------


class TestParallelFlapping:
    PARALLEL = PlannerOptions(max_parallel_fragments=4)

    def test_breaker_half_open_recovery_with_flapping_faults(self):
        # Injected flapping: every call fails until two failures, then the
        # source heals. Two failed queries trip the breaker; after the
        # reset period a half-open probe succeeds and closes it again.
        plan = FaultPlan.of(flaky=FaultSpec(fail_every=1, recover_after=2))
        gis = GlobalInformationSystem(faults=plan)
        source = MemorySource("flaky")
        source.add_table("t", SCHEMA, ROWS)
        gis.register_source("flaky", source)
        gis.register_table("t", source="flaky")
        options = self.PARALLEL.but(
            breaker_failure_threshold=2, breaker_reset_ms=5.0
        )
        for _ in range(2):
            with pytest.raises(SourceError, match="injected fault"):
                gis.query("SELECT COUNT(*) FROM t", options)
        assert gis.breakers.get("flaky").state == "open"
        time.sleep(0.02)  # let the reset period elapse -> half-open
        assert gis.breakers.get("flaky").state == "half-open"
        result = gis.query("SELECT COUNT(*) FROM t", options)
        assert result.scalar() == 2500
        assert gis.breakers.get("flaky").state == "closed"

    def test_replica_fallback_with_injected_faults_parallel(self):
        plan = FaultPlan.of(primary=FaultSpec(fail_connect=999))
        gis = GlobalInformationSystem(fragment_retries=1, faults=plan)
        primary = MemorySource("primary")
        primary.add_table("t", SCHEMA, ROWS)
        backup = MemorySource("backup")
        backup.add_table("t_copy", SCHEMA, ROWS)
        gis.register_source("primary", primary)
        gis.register_source("backup", backup)
        gis.register_table("t", source="primary")
        gis.register_replica("t", source="backup", remote_table="t_copy")
        options = self.PARALLEL.but(
            breaker_failure_threshold=1, replicas="primary"
        )
        result = gis.query("SELECT a, b FROM t ORDER BY a", options)
        assert result.rows == sorted(ROWS)
        net = result.metrics.network
        assert net.breaker_trips == 1
        assert net.breaker_fallbacks == 1
