"""Plan-shape cache and prepared statements (repro.core.prepared)."""

import threading

import pytest

from repro import GlobalInformationSystem, PlannerOptions
from repro.core.prepared import parameterize
from repro.errors import PlanError
from repro.sql.parser import parse_select
from repro.workloads import WORKLOAD_QUERIES

from .conftest import make_small_gis


def make_cached_gis(plan_cache_size=64, **kwargs) -> GlobalInformationSystem:
    """The conftest two-source federation, with the plan cache armed."""
    gis = make_small_gis()
    gis.plan_cache.capacity = plan_cache_size
    gis.plan_cache.invalidate()  # forget setup-time registrations cleanly
    for key, value in kwargs.items():
        setattr(gis, key, value)
    return gis


# ---------------------------------------------------------------------------
# parameterization
# ---------------------------------------------------------------------------


class TestParameterize:
    def test_literals_become_slots(self):
        param = parameterize(
            parse_select("SELECT name FROM t WHERE a > 5 AND b = 'x'")
        )
        assert param.values == [5, "x"]
        assert param.parameter_count == 2

    def test_same_shape_for_different_literals(self):
        a = parameterize(parse_select("SELECT * FROM t WHERE a > 5"))
        b = parameterize(parse_select("SELECT * FROM t WHERE a > 99"))
        assert a.shape_key == b.shape_key

    def test_different_structure_different_shape(self):
        a = parameterize(parse_select("SELECT * FROM t WHERE a > 5"))
        b = parameterize(parse_select("SELECT * FROM t WHERE a < 5"))
        c = parameterize(parse_select("SELECT * FROM t WHERE b > 5"))
        assert a.shape_key != b.shape_key
        assert a.shape_key != c.shape_key

    def test_limit_is_part_of_the_shape(self):
        # LIMIT/OFFSET are statement fields, not literal expressions; a
        # different limit is a different shape (both still plan fine).
        a = parameterize(parse_select("SELECT * FROM t ORDER BY a LIMIT 5"))
        b = parameterize(parse_select("SELECT * FROM t ORDER BY a LIMIT 9"))
        assert a.shape_key != b.shape_key
        assert a.values == [] and b.values == []

    def test_subquery_literals_are_parameterized(self):
        a = parameterize(parse_select(
            "SELECT name FROM customers WHERE id IN "
            "(SELECT cust_id FROM orders WHERE total > 100)"
        ))
        b = parameterize(parse_select(
            "SELECT name FROM customers WHERE id IN "
            "(SELECT cust_id FROM orders WHERE total > 900)"
        ))
        assert a.values == [100]
        assert a.shape_key == b.shape_key

    def test_deterministic_slot_order(self):
        sql = "SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3"
        first = parameterize(parse_select(sql))
        second = parameterize(parse_select(sql))
        assert first.values == second.values == [1, 2, 3]
        assert first.shape_key == second.shape_key


# ---------------------------------------------------------------------------
# the implicit plan cache on query()
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_second_execution_hits(self):
        gis = make_cached_gis()
        gis.query("SELECT name FROM customers WHERE balance > 100")
        result = gis.query("SELECT name FROM customers WHERE balance > 100")
        assert result.metrics.network.plan_cache_hit
        stats = gis.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_rebound_literals_match_uncached_mediator(self):
        gis = make_cached_gis()
        reference = make_small_gis()  # no plan cache
        template = (
            "SELECT c.name, o.total FROM customers c "
            "JOIN orders o ON c.id = o.cust_id WHERE o.total > {}"
        )
        gis.query(template.format(50))  # cold: plans and caches the shape
        for threshold in (100, 20, 999, 0):
            sql = template.format(threshold)
            cached = gis.query(sql)
            direct = reference.query(sql)
            assert cached.rows == direct.rows, sql
            assert cached.column_names == direct.column_names
            assert cached.metrics.network.plan_cache_hit

    def test_workload_queries_bit_identical_through_cache(self, federation):
        gis = federation.gis
        stats_before = gis.plan_cache.stats()
        gis.plan_cache.capacity = 64
        try:
            for _name, sql in WORKLOAD_QUERIES:
                cold = gis.query(sql)
                warm = gis.query(sql)
                assert warm.metrics.network.plan_cache_hit, _name
                assert warm.rows == cold.rows, _name
                assert warm.column_names == cold.column_names, _name
        finally:
            gis.plan_cache.capacity = stats_before["capacity"]
            gis.plan_cache.invalidate()  # session fixture: leave no plans

    def test_warm_planning_is_cheaper(self):
        gis = make_cached_gis()
        sql = (
            "SELECT c.region, COUNT(*) FROM customers c "
            "JOIN orders o ON c.id = o.cust_id GROUP BY c.region"
        )
        cold = gis.query(sql)
        warm = gis.query(sql)
        assert warm.metrics.planning_ms < cold.metrics.planning_ms

    def test_value_sensitive_literal_falls_back(self):
        # 100 + 50 constant-folds into a fresh (untagged) literal, so the
        # slots do not survive into the plan; changing them must replan,
        # not reuse a plan baked for the old constant.
        gis = make_cached_gis()
        reference = make_small_gis()
        first = gis.query("SELECT name FROM customers WHERE balance > 100 + 50")
        changed_sql = "SELECT name FROM customers WHERE balance > 10 + 40"
        changed = gis.query(changed_sql)
        assert changed.rows == reference.query(changed_sql).rows
        assert not changed.metrics.network.plan_cache_hit
        assert gis.plan_cache.stats()["fallbacks"] == 1
        assert first.rows != changed.rows  # the thresholds really differ
        # The fallback refreshed the entry: same values again now hit.
        again = gis.query(changed_sql)
        assert again.metrics.network.plan_cache_hit

    def test_catalog_change_invalidates(self):
        gis = make_cached_gis()
        sql = "SELECT COUNT(*) FROM orders"
        gis.query(sql)
        assert gis.query(sql).metrics.network.plan_cache_hit
        gis.analyze()  # bumps the plan-cache epoch
        after = gis.query(sql)
        assert not after.metrics.network.plan_cache_hit
        assert gis.plan_cache.stats()["invalidations"] >= 1

    def test_lru_eviction_bound(self):
        gis = make_cached_gis(plan_cache_size=2)
        gis.query("SELECT id FROM customers")
        gis.query("SELECT name FROM customers")
        gis.query("SELECT region FROM customers")
        stats = gis.plan_cache.stats()
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 1

    def test_execution_knobs_share_a_plan(self):
        # deadline / partial / trace do not change planning; requests
        # differing only in those knobs must share one cache entry.
        gis = make_cached_gis()
        sql = "SELECT name FROM customers WHERE balance > 10"
        gis.query(sql)
        warm = gis.query(
            sql,
            gis.planner.options.but(
                deadline_ms=60_000.0, on_source_failure="partial"
            ),
        )
        assert warm.metrics.network.plan_cache_hit
        assert gis.plan_cache.stats()["entries"] == 1

    def test_planning_options_get_distinct_entries(self):
        gis = make_cached_gis()
        sql = "SELECT name FROM customers WHERE balance > 10"
        gis.query(sql)
        other = gis.query(sql, PlannerOptions(pushdown="scans-only"))
        assert not other.metrics.network.plan_cache_hit
        assert gis.plan_cache.stats()["entries"] == 2

    def test_cache_hit_rebuilds_the_physical_plan_a_fresh_plan_would(self):
        # Both paths build operators through the same PhysicalPlanner, so
        # the hash join and the Project-over-Filter chain print identically
        # on a miss, a hit and an uncached plan. The fetch degree shapes
        # no operator, so the exchange carries no label for it.
        from repro.obs.trace import NULL_SPAN, NULL_TRACER

        gis = make_cached_gis()
        options = PlannerOptions(
            pushdown="scans-only", max_parallel_fragments=4,
        )
        sql = (
            "SELECT c.name, o.total * 2 FROM customers c "
            "JOIN orders o ON c.id = o.cust_id WHERE o.total > 50"
        )
        miss, hit = gis._plan_for_query(sql, options, NULL_TRACER, NULL_SPAN)
        assert not hit
        rebound, hit = gis._plan_for_query(sql, options, NULL_TRACER, NULL_SPAN)
        assert hit
        assert rebound.explain() == miss.explain()
        assert rebound.explain() == gis.planner.plan(sql, options).explain()
        assert rebound.physical.explain().splitlines()[-3:] == [
            "    Project",
            "      Filter",
            "        Exchange(source=erp)",
        ]
        assert "HashJoin(INNER)" in rebound.physical.explain()

    def test_disabled_cache_is_inert(self):
        gis = make_small_gis()
        sql = "SELECT COUNT(*) FROM orders"
        gis.query(sql)
        second = gis.query(sql)
        assert not second.metrics.network.plan_cache_hit
        assert len(gis.plan_cache) == 0


# ---------------------------------------------------------------------------
# explicit prepared statements
# ---------------------------------------------------------------------------


class TestPreparedStatements:
    def test_execute_with_new_parameters(self):
        gis = make_cached_gis()
        reference = make_small_gis()
        prepared = gis.prepare("SELECT name FROM customers WHERE balance > 100")
        assert prepared.parameter_count == 1
        for threshold in (100, -50, 250):
            result = prepared.execute([threshold])
            direct = reference.query(
                f"SELECT name FROM customers WHERE balance > {threshold}"
            )
            assert result.rows == direct.rows

    def test_execute_without_params_reuses_originals(self):
        gis = make_cached_gis()
        prepared = gis.prepare("SELECT oid FROM orders WHERE total > 400")
        assert prepared.execute().rows == prepared.execute().rows
        assert prepared.execute().metrics.network.plan_cache_hit

    def test_wrong_arity_rejected(self):
        gis = make_cached_gis()
        prepared = gis.prepare("SELECT name FROM customers WHERE balance > 100")
        with pytest.raises(PlanError, match="takes 1 parameter"):
            prepared.execute([1, 2])

    def test_wrong_type_rejected(self):
        gis = make_cached_gis()
        prepared = gis.prepare("SELECT name FROM customers WHERE balance > 100")
        with pytest.raises(PlanError, match="parameter 0"):
            prepared.execute(["not-a-number"])

    def test_null_parameter_allowed(self):
        gis = make_cached_gis()
        prepared = gis.prepare("SELECT name FROM customers WHERE balance > 100")
        assert prepared.execute([None]).rows == []

    def test_survives_catalog_invalidation(self):
        gis = make_cached_gis()
        prepared = gis.prepare("SELECT COUNT(*) FROM orders WHERE total > 100")
        before = prepared.execute([100]).rows
        gis.analyze()  # invalidates every cached plan
        after = prepared.execute([100])
        assert after.rows == before
        assert not after.metrics.network.plan_cache_hit  # replanned
        # ...and the handle re-pins the fresh plan for the next call.
        assert prepared.execute([100]).metrics.network.plan_cache_hit


# ---------------------------------------------------------------------------
# thread safety (satellite: 8-thread hammer on one mediator)
# ---------------------------------------------------------------------------


class TestConcurrentMediator:
    def test_eight_thread_hammer_matches_reference(self):
        gis = make_cached_gis(plan_cache_size=32)
        templates = [
            "SELECT name FROM customers WHERE balance > {}",
            "SELECT oid, total FROM orders WHERE total > {}",
            "SELECT c.name, o.total FROM customers c "
            "JOIN orders o ON c.id = o.cust_id WHERE o.total > {}",
            "SELECT status, COUNT(*) FROM orders GROUP BY status",
        ]
        thresholds = (0, 20, 100, 400, 999)
        jobs = [
            template.format(threshold)
            for template in templates
            for threshold in thresholds
        ]
        reference = make_small_gis()
        expected = {sql: reference.query(sql).rows for sql in jobs}

        errors = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                for repeat in range(3):
                    for index, sql in enumerate(jobs):
                        if (index + worker + repeat) % 2:
                            continue  # interleave differently per thread
                        result = gis.query(sql)
                        if result.rows != expected[sql]:
                            errors.append(
                                f"worker {worker} got {len(result.rows)} rows "
                                f"for {sql!r}"
                            )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"worker {worker}: {exc!r}")

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:5]
        stats = gis.plan_cache.stats()
        assert stats["hits"] > 0  # the cache was genuinely exercised
