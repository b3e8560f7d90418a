"""Semijoin (bind-join) planning and execution."""

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
    SourceError,
    SQLiteSource,
)
from repro.catalog.schema import schema_from_pairs
from repro.core.logical import RemoteQueryOp

from .conftest import assert_same_rows
from .reference import reference_query


def build_gis(bandwidth=1_000.0, big_rows=2000, match_keys=5, retries=0):
    """A tiny filtered probe side against a big remote side on a slow link.

    Low bandwidth makes shipping the big table expensive, so the semijoin
    should win in `auto` mode.
    """
    gis = GlobalInformationSystem(fragment_retries=retries)
    left = MemorySource("left")
    left_schema = schema_from_pairs("probe", [("k", "INT"), ("tag", "TEXT")])
    left.add_table(
        "probe", left_schema, [(i, f"tag{i}") for i in range(match_keys)]
    )
    right = SQLiteSource("right")
    right_schema = schema_from_pairs(
        "big", [("k", "INT"), ("payload", "TEXT")]
    )
    right.load_table(
        "big",
        right_schema,
        [(i % 100, "x" * 50) for i in range(big_rows)],
    )
    gis.register_source("left", left, link=NetworkLink(5.0, 10_000_000.0))
    gis.register_source("right", right, link=NetworkLink(20.0, bandwidth))
    gis.register_table("probe", source="left")
    gis.register_table("big", source="right")
    gis.analyze()
    return gis


QUERY = (
    "SELECT p.tag, b.payload FROM probe p JOIN big b ON p.k = b.k"
)


def bound_remotes(plan):
    return [
        n
        for n in plan.walk()
        if isinstance(n, RemoteQueryOp) and n.bind is not None
    ]


class TestPlanning:
    def test_auto_applies_on_slow_link(self):
        gis = build_gis(bandwidth=1_000.0)
        planned = gis.plan(QUERY)
        assert bound_remotes(planned.distributed)
        decision = [d for d in planned.semijoin_decisions if d.applied][0]
        assert decision.reduced_cost_ms < decision.full_cost_ms

    def test_auto_declines_when_probe_is_unselective(self):
        # Probe keys cover the remote key domain: no reduction is possible,
        # so the extra key-shipping round would be pure overhead.
        gis = build_gis(bandwidth=1_000_000_000.0, match_keys=200)
        planned = gis.plan(QUERY)
        assert not bound_remotes(planned.distributed)
        assert any(not d.applied for d in planned.semijoin_decisions)

    def test_off_mode_never_applies(self):
        gis = build_gis(bandwidth=1_000.0)
        planned = gis.plan(QUERY, PlannerOptions(semijoin="off"))
        assert not bound_remotes(planned.distributed)

    def test_force_mode_always_applies(self):
        gis = build_gis(bandwidth=1_000_000_000.0)
        planned = gis.plan(QUERY, PlannerOptions(semijoin="force"))
        assert bound_remotes(planned.distributed)

    def test_invalid_mode_rejected(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            PlannerOptions(semijoin="sometimes")


class TestExecution:
    def test_results_match_plain_join(self):
        gis = build_gis(bandwidth=1_000.0)
        reduced = gis.query(QUERY, PlannerOptions(semijoin="force"))
        plain = gis.query(QUERY, PlannerOptions(semijoin="off"))
        assert_same_rows(reduced.rows, plain.rows)

    def test_ships_fewer_rows(self):
        gis = build_gis(bandwidth=1_000.0)
        reduced = gis.query(QUERY, PlannerOptions(semijoin="force"))
        gis2 = build_gis(bandwidth=1_000.0)
        plain = gis2.query(QUERY, PlannerOptions(semijoin="off"))
        assert reduced.metrics.rows_shipped < plain.metrics.rows_shipped

    def test_batching_respects_in_list_cap(self):
        gis = build_gis(bandwidth=1_000.0, match_keys=60)
        # Shrink the source's IN-list cap to force multiple batches.
        adapter = gis.catalog.source("right")
        adapter._capabilities = adapter.capabilities().restricted(in_list_max=25)
        result = gis.query(QUERY, PlannerOptions(semijoin="force"))
        assert result.metrics.network.semijoin_batches == 3  # ceil(60/25)

    def test_empty_probe_side_skips_remote_entirely(self):
        gis = build_gis(bandwidth=1_000.0)
        result = gis.query(
            "SELECT p.tag, b.payload FROM probe p JOIN big b ON p.k = b.k "
            "WHERE p.tag = 'nothing-matches'",
            PlannerOptions(semijoin="force"),
        )
        assert result.rows == []
        # No page was fetched from the big table's source.
        assert result.metrics.network.per_source_rows.get("right", 0) == 0

    def test_null_probe_keys_ignored(self):
        gis = GlobalInformationSystem()
        left = MemorySource("left")
        schema = schema_from_pairs("probe", [("k", "INT")])
        left.add_table("probe", schema, [(1,), (None,), (2,)])
        right = SQLiteSource("right")
        right.load_table(
            "big", schema_from_pairs("big", [("k", "INT")]), [(1,), (3,)]
        )
        gis.register_source("left", left)
        gis.register_source("right", right)
        gis.register_table("probe", source="left")
        gis.register_table("big", source="right")
        gis.analyze()
        result = gis.query(
            "SELECT p.k FROM probe p JOIN big b ON p.k = b.k",
            PlannerOptions(semijoin="force"),
        )
        assert result.rows == [(1,)]

    def test_semi_join_from_in_subquery_binds(self):
        gis = build_gis(bandwidth=1_000.0)
        result = gis.query(
            "SELECT tag FROM probe WHERE k IN (SELECT k FROM big)",
            PlannerOptions(semijoin="force"),
        )
        names, reference = reference_query(
            gis, "SELECT tag FROM probe WHERE k IN (SELECT k FROM big)"
        )
        assert_same_rows(result.rows, reference)


@pytest.mark.parametrize("parallel", [1, 4])
class TestBindJoinEnvelope:
    """Key batches run inside the same retry / breaker / fallback / health
    envelope on the caller's thread as on scheduler workers."""

    def forced(self, parallel, **knobs):
        return PlannerOptions(
            semijoin="force", max_parallel_fragments=parallel, **knobs
        )

    def test_connect_fault_on_bound_source_is_retried(self, parallel):
        expected = build_gis().query(QUERY, self.forced(parallel)).rows
        gis = build_gis(retries=1)
        plan = FaultPlan.of(right=FaultSpec(fail_connect=1))
        result = gis.query(QUERY, self.forced(parallel, faults=plan))
        assert result.rows == expected
        assert result.metrics.network.fragment_retries == 1

    def test_bound_source_feeds_health(self, parallel):
        gis = build_gis()
        gis.query(QUERY, self.forced(parallel))
        assert gis.health_status()["right"]["samples"] > 0

    def test_open_breaker_falls_back_to_replica(self, parallel):
        expected = build_gis().query(QUERY, self.forced(parallel)).rows
        gis = build_gis()
        replica = SQLiteSource("replica")
        replica.load_table(
            "big_copy",
            schema_from_pairs("big", [("k", "INT"), ("payload", "TEXT")]),
            [(i % 100, "x" * 50) for i in range(2000)],
        )
        gis.register_source("replica", replica)
        gis.register_replica("big", source="replica", remote_table="big_copy")
        gis.breakers.breaker_for("right", 1, 30_000.0).record_failure()
        result = gis.query(
            QUERY,
            self.forced(
                parallel, breaker_failure_threshold=1, replicas="primary"
            ),
        )
        assert result.rows == expected
        assert result.metrics.network.breaker_fallbacks == 1

    def test_key_batch_upload_charged_as_its_fetch_starts(self, parallel):
        # Three key batches against a source that never answers: at degree
        # 1 batch 1 fails before batches 2 and 3 start, so only its upload
        # crosses the wire; worker tasks start (and upload) at submission.
        gis = build_gis(match_keys=60)
        adapter = gis.catalog.source("right")
        adapter._capabilities = adapter.capabilities().restricted(in_list_max=25)
        plan = FaultPlan.of(right=FaultSpec(fail_connect=100, permanent=True))
        with pytest.raises(SourceError):
            gis.query(QUERY, self.forced(parallel, faults=plan))
        ledger = gis.network.per_source()["right"]
        uploads = 1 if parallel == 1 else 3
        key_bytes = [8.0 * 25, 8.0 * 25, 8.0 * 10]  # 60 INT keys, cap 25
        assert ledger.messages == uploads
        assert ledger.rows == 0
        assert ledger.bytes == sum(key_bytes[:uploads])


class TestKeyValueBindJoin:
    def test_kv_source_answers_bind_join_by_key(self, federation):
        sql = (
            "SELECT c.c_name, p.u_tier FROM customers c "
            "JOIN profiles p ON c.c_id = p.u_cust_id WHERE c.c_balance > 8000"
        )
        planned = federation.gis.plan(sql, PlannerOptions(semijoin="force"))
        bound = bound_remotes(planned.distributed)
        assert bound and bound[0].source_name == "support"
        result = federation.gis.query(sql, PlannerOptions(semijoin="force"))
        names, reference = reference_query(federation.gis, sql)
        assert_same_rows(result.rows, reference)
