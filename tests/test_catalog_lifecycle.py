"""Runtime catalog lifecycle: events, unregister cascades, alter_table.

The catalog is live now: sources attach and detach mid-session, tables
get altered, and every mutation publishes a typed event and bumps the
unified version vector. These tests pin down the cascade semantics —
dangling replicas never outlive their source, surviving replicas get
promoted, breaker/link/fragment-cache state dies with the source — and
the regression the refactor must not lose: a mid-flight source change
(now signalled through the catalog) still rejects fragment-cache fills.
"""

from __future__ import annotations

import io

import pytest

from repro import GlobalInformationSystem, MemorySource
from repro.catalog import events as ev
from repro.catalog.schema import schema_from_pairs
from repro.core.pages import Page
from repro.core.physical import ExchangeExec
from repro.errors import (
    CatalogError,
    DuplicateObjectError,
    GISError,
    UnknownObjectError,
)
from repro.repl import Repl
from repro.sources import NetworkLink

CUSTOMERS = [
    (1, "Alice", "east", 10.0),
    (2, "Bob", "west", 20.0),
    (3, "Cara", "east", 30.0),
]
ORDERS = [(100, 1, 250.0), (101, 2, 80.0), (102, 3, 990.0)]


def customer_schema(name="customers"):
    return schema_from_pairs(
        name, [("id", "INT"), ("name", "TEXT"), ("region", "TEXT"), ("score", "FLOAT")]
    )


def make_gis(with_replica: bool = True, **kwargs) -> GlobalInformationSystem:
    """CRM + ERP, with an optional full replica of customers on 'mirror'."""
    kwargs.setdefault("fragment_cache_bytes", 1 << 20)
    kwargs.setdefault("plan_cache_size", 32)
    gis = GlobalInformationSystem(**kwargs)
    crm = MemorySource("crm")
    crm.add_table("customers", customer_schema(), CUSTOMERS)
    erp = MemorySource("erp")
    erp.add_table(
        "ORDERS",
        schema_from_pairs("ORDERS", [("oid", "INT"), ("cid", "INT"), ("total", "FLOAT")]),
        ORDERS,
    )
    gis.register_source("crm", crm, link=NetworkLink(20.0, 1e6))
    gis.register_source("erp", erp, link=NetworkLink(30.0, 2e6))
    gis.register_table("customers", source="crm")
    gis.register_table("orders", source="erp", remote_table="ORDERS")
    if with_replica:
        mirror = MemorySource("mirror")
        mirror.add_table("customers", customer_schema(), CUSTOMERS)
        gis.register_source("mirror", mirror, link=NetworkLink(5.0, 8e6))
        gis.register_replica("customers", source="mirror")
    return gis


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


class TestEvents:
    def test_mutations_publish_typed_events_in_order(self):
        gis = make_gis(with_replica=False)
        seen = []
        gis.catalog.subscribe(seen.append)
        mirror = MemorySource("mirror")
        mirror.add_table("customers", customer_schema(), CUSTOMERS)
        gis.register_source("mirror", mirror)
        gis.register_replica("customers", source="mirror")
        gis.create_view("east", "SELECT * FROM customers WHERE region = 'east'")
        gis.analyze(["customers"])
        kinds = [event.kind for event in seen]
        assert kinds == [
            ev.SOURCE_REGISTERED,
            ev.REPLICA_ADDED,
            ev.VIEW_REGISTERED,
            ev.STATS_UPDATED,
        ]
        assert all(not event.is_cascade for event in seen)

    def test_catalog_epoch_strictly_increases_per_event(self):
        gis = make_gis()
        seen = []
        gis.catalog.subscribe(seen.append)
        gis.notify_source_changed("crm")
        gis.analyze(["customers"])
        epochs = [event.catalog_epoch for event in seen]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_unsubscribe_stops_delivery(self):
        gis = make_gis()
        seen = []
        gis.catalog.subscribe(seen.append)
        gis.catalog.unsubscribe(seen.append)
        gis.notify_source_changed("crm")
        assert seen == []


# ---------------------------------------------------------------------------
# unregister_source cascades
# ---------------------------------------------------------------------------


class TestUnregisterSource:
    def test_unknown_source_raises(self):
        gis = make_gis()
        with pytest.raises(UnknownObjectError):
            gis.unregister_source("nope")

    def test_dangling_replicas_are_dropped_with_their_source(self):
        gis = make_gis()
        report = gis.unregister_source("mirror")
        assert report["dropped_replicas"] == ["customers"]
        assert report["dropped_tables"] == []
        entry = gis.catalog.table("customers")
        assert entry.mapping.source == "crm"
        assert entry.replicas == []
        # The table still answers queries from its primary.
        assert gis.query("SELECT COUNT(*) FROM customers").scalar() == 3

    def test_surviving_replica_is_promoted_to_primary(self):
        gis = make_gis()
        before = gis.query("SELECT id, name FROM customers WHERE score > 15")
        report = gis.unregister_source("crm")
        assert report["promoted_tables"] == ["customers"]
        entry = gis.catalog.table("customers")
        assert entry.mapping.source == "mirror"
        assert entry.replicas == []
        after = gis.query("SELECT id, name FROM customers WHERE score > 15")
        assert sorted(after.rows) == sorted(before.rows)

    def test_table_without_surviving_copy_is_dropped_with_stats(self):
        gis = make_gis()
        gis.analyze(["orders"])
        assert gis.catalog.statistics("orders") is not None
        report = gis.unregister_source("erp")
        assert report["dropped_tables"] == ["orders"]
        assert not gis.catalog.has_table("orders")
        assert gis.catalog.statistics("orders") is None
        with pytest.raises(GISError):
            gis.query("SELECT COUNT(*) FROM orders")

    def test_breaker_link_and_fragment_entries_die_with_the_source(self):
        gis = make_gis()
        gis.query("SELECT oid, total FROM orders WHERE total > 100")
        assert len(gis.fragment_cache) >= 1
        gis.breakers.breaker_for("erp", 5, 1000.0)
        default = gis.network.link_for("unknown-source")
        assert gis.network.link_for("erp") is not default
        gis.unregister_source("erp")
        assert all(
            entry.source != "erp"
            for entry in gis.fragment_cache._entries.values()
        )
        assert gis.breakers.get("erp") is None
        assert gis.network.link_for("erp") is default

    def test_health_state_and_hedge_bookkeeping_die_with_the_source(self):
        """A stale latency profile surviving re-register would poison the
        adaptive timeout and hedge delay of the *new* source wearing the
        old name — health must be cleaned up exactly like breakers."""
        gis = make_gis()
        for _ in range(10):
            gis.health.observe_latency("erp", 500.0)
        gis.health.record_error("erp")
        gis.health.record_hedge("erp", won=False)
        assert gis.health.adaptive_timeout_ms("erp", 3.0, 50.0, 30000.0) == 1500.0
        gis.unregister_source("erp")
        assert gis.health.get("erp") is None
        assert "erp" not in gis.health.snapshot()
        # A re-registered source starts cold: static fallback, no hedge
        # history, fresh quantiles.
        erp2 = MemorySource("erp")
        erp2.add_table(
            "ORDERS",
            schema_from_pairs(
                "ORDERS",
                [("oid", "INT"), ("cid", "INT"), ("total", "FLOAT")],
            ),
            ORDERS,
        )
        gis.register_source("erp", erp2)
        gis.register_table("orders", source="erp", remote_table="ORDERS")
        assert gis.health.adaptive_timeout_ms("erp", 3.0, 50.0, 30000.0) is None
        status = gis.health_status()["erp"]
        assert status["samples"] == 0
        assert status["hedges_launched"] == 0
        assert gis.query("SELECT COUNT(*) FROM orders").scalar() == len(ORDERS)

    def test_cascade_events_are_flagged(self):
        gis = make_gis()
        seen = []
        gis.catalog.subscribe(seen.append)
        gis.unregister_source("mirror")
        kinds = [(event.kind, event.is_cascade) for event in seen]
        assert (ev.REPLICA_DROPPED, True) in kinds
        assert (ev.SOURCE_UNREGISTERED, False) in kinds

    def test_reregistering_the_name_does_not_resurrect_old_epoch(self):
        gis = make_gis(with_replica=False)
        gis.notify_source_changed("crm")
        epoch_before = gis.catalog.versions.current("crm")
        gis.unregister_source("crm")
        crm2 = MemorySource("crm")
        crm2.add_table("customers", customer_schema(), CUSTOMERS[:1])
        gis.register_source("crm", crm2)
        assert gis.catalog.versions.current("crm") > epoch_before


# ---------------------------------------------------------------------------
# alter_table
# ---------------------------------------------------------------------------


class TestAlterTable:
    def test_alter_rederives_schema_and_drops_stats(self):
        gis = make_gis(with_replica=False)
        gis.analyze(["customers"])
        crm = gis.catalog.source("crm")
        crm.add_table(
            "customers_v2",
            schema_from_pairs(
                "customers_v2",
                [("id", "INT"), ("name", "TEXT"), ("tier", "TEXT")],
            ),
            [(1, "Alice", "gold"), (2, "Bob", "basic")],
        )
        schema_v = gis.catalog.versions.schema_version("customers")
        gis.alter_table("customers", remote_table="customers_v2")
        entry = gis.catalog.table("customers")
        assert entry.schema.column_names() == ["id", "name", "tier"]
        assert gis.catalog.statistics("customers") is None
        assert gis.catalog.versions.schema_version("customers") == schema_v + 1
        assert gis.query("SELECT tier FROM customers WHERE id = 1").rows == [
            ("gold",)
        ]

    def test_alter_drops_replicas_missing_new_columns(self):
        gis = make_gis()
        crm = gis.catalog.source("crm")
        crm.add_table(
            "customers_v2",
            schema_from_pairs(
                "customers_v2", [("id", "INT"), ("name", "TEXT"), ("tier", "TEXT")]
            ),
            [(1, "Alice", "gold")],
        )
        report = gis.alter_table("customers", remote_table="customers_v2")
        assert report["dropped_replicas"] == ["mirror"]
        assert gis.catalog.table("customers").replicas == []

    def test_alter_view_is_rejected(self):
        gis = make_gis(with_replica=False)
        gis.create_view("east", "SELECT * FROM customers WHERE region = 'east'")
        with pytest.raises(CatalogError):
            gis.alter_table("east")

    def test_alter_invalidates_cached_plans(self):
        gis = make_gis(with_replica=False)
        sql = "SELECT name FROM customers WHERE id = 1"
        gis.query(sql)
        gis.query(sql)
        crm = gis.catalog.source("crm")
        crm.add_table(
            "customers_v2",
            schema_from_pairs("customers_v2", [("id", "INT"), ("name", "TEXT")]),
            [(7, "Zoe")],
        )
        invalidations = gis.plan_cache.stats()["invalidations"]
        gis.alter_table("customers", remote_table="customers_v2")
        assert gis.plan_cache.stats()["invalidations"] > invalidations
        assert gis.query(sql).rows == []  # replanned against the new table


# ---------------------------------------------------------------------------
# the one-invalidation-authority regression (ISSUE 9 acceptance)
# ---------------------------------------------------------------------------


class TestUnifiedVersions:
    def test_midflight_source_change_still_rejects_fill(self):
        """The epochs.py regression: a source change signalled through the
        *catalog* mid-fill must still reject the fragment-cache admission."""
        gis = make_gis(with_replica=False)
        sql = "SELECT id, name, score FROM customers WHERE score > 5"
        planned = gis.plan(sql)
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
        gis.notify_source_changed("crm")  # ...the catalog observes a change...
        for _ in filled:  # ...and the stream still finishes cleanly
            pass
        stats = gis.fragment_cache.stats()
        assert stats["admissions"] == 0
        assert stats["rejected_stale"] == 1

    def test_source_epochs_alias_is_the_catalog_versions(self):
        gis = make_gis(with_replica=False)
        assert gis.source_epochs is gis.catalog.versions
        assert gis.fragment_cache.epochs is gis.catalog.versions
        assert gis.materialized.epochs is gis.catalog.versions

    def test_register_table_bumps_through_the_catalog(self):
        gis = make_gis(with_replica=False)
        crm = gis.catalog.source("crm")
        epoch = gis.catalog.versions.current("crm")
        crm.add_table(
            "extra", schema_from_pairs("extra", [("k", "INT")]), [(1,)]
        )
        gis.register_table("extra", source="crm")
        assert gis.catalog.versions.current("crm") == epoch + 1

    def test_duplicate_source_still_rejected(self):
        gis = make_gis(with_replica=False)
        with pytest.raises(DuplicateObjectError):
            gis.register_source("crm", MemorySource("crm"))


# ---------------------------------------------------------------------------
# operator surface
# ---------------------------------------------------------------------------


class TestOperatorSurface:
    def test_catalog_status_reports_versions_and_journal(self):
        gis = make_gis()
        gis.analyze(["customers"])
        status = gis.catalog_status()
        assert status["catalog_epoch"] > 0
        by_name = {s["name"]: s for s in status["sources"]}
        assert set(by_name) == {"crm", "erp", "mirror"}
        assert not by_name["crm"]["recoverable"]  # programmatic, no spec
        tables = {t["name"]: t for t in status["tables"]}
        assert tables["customers"]["replicas"] == 1
        assert tables["customers"]["stats_version"] == 1
        assert tables["customers"]["analyzed"]
        assert tables["orders"]["stats_version"] == 0
        assert status["journal"] is None

    def test_repl_catalog_command(self):
        gis = make_gis()
        out = io.StringIO()
        repl = Repl(gis, out=out)
        repl.feed_line("\\catalog")
        text = out.getvalue()
        assert "catalog epoch:" in text
        assert "crm: epoch" in text
        assert "customers" in text
        assert "journal: OFF" in text
