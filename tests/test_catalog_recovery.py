"""Catalog persistence & recovery: journal replay, snapshots, monotone epochs.

The scenario under test is a mediator crash: the process dies mid-workload
and a fresh one is built from the same config with ``recover_on_start``.
Recovery must reproduce the *exact* pre-crash catalog — same sources (via
their declarative connector specs), same schemas and mappings verbatim,
same statistics (so plans cost identically), and a version vector that is
never behind the pre-crash one, so no cached artifact from a previous life
can be mistaken for fresh.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CatalogVersions, build_from_config
from repro.catalog import events as ev
from repro.errors import CatalogError, GISError


def base_config(journal_path: str, **catalog_overrides) -> dict:
    catalog = {"journal": journal_path, "recover_on_start": True}
    catalog.update(catalog_overrides)
    return {
        "sources": {
            "crm": {
                "type": "memory",
                "tables": {
                    "CUSTOMERS": {
                        "columns": [
                            ["id", "INT"], ["name", "TEXT"],
                            ["region", "TEXT"], ["score", "FLOAT"],
                        ],
                        "rows": [
                            [1, "Alice", "east", 10.0],
                            [2, "Bob", "west", 20.0],
                            [3, "Cara", "east", 30.0],
                            [4, "Dan", "west", 40.0],
                        ],
                    }
                },
                "link": {"latency_ms": 20, "bandwidth_bytes_per_s": 1e6},
            },
            "erp": {
                "type": "sqlite",
                "tables": {
                    "ORDERS": {
                        "columns": [
                            ["oid", "INT"], ["cid", "INT"], ["total", "FLOAT"],
                        ],
                        "rows": [
                            [100, 1, 250.0], [101, 2, 80.0],
                            [102, 3, 990.0], [103, 4, 15.0],
                        ],
                    }
                },
                "link": {"latency_ms": 30, "bandwidth_bytes_per_s": 2e6},
            },
        },
        "tables": [
            {"name": "customers", "source": "crm", "remote_table": "CUSTOMERS"},
            {"name": "orders", "source": "erp", "remote_table": "ORDERS"},
        ],
        "views": {
            "big_orders": "SELECT oid, cid, total FROM orders WHERE total > 50"
        },
        "analyze": True,
        "plan_cache_size": 32,
        "cache": {"fragment_bytes": 1 << 20},
        "catalog": catalog,
    }


WORKLOAD = [
    "SELECT COUNT(*) FROM big_orders",
    "SELECT name, total FROM customers, orders "
    "WHERE id = cid AND total > 100",
    "SELECT region, SUM(score) FROM customers GROUP BY region",
]


# ---------------------------------------------------------------------------
# crash / rebuild / replay
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_restart_replays_to_identical_plans_and_results(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        warm_results = {sql: warm.query(sql) for sql in WORKLOAD}
        warm_plans = {sql: warm.explain(sql) for sql in WORKLOAD}

        # "Crash": drop the mediator, rebuild from the same config.
        recovered = build_from_config(config)
        assert recovered.catalog_recovery["recovered"]
        assert recovered.catalog_recovery["errors"] == []
        for sql in WORKLOAD:
            assert recovered.explain(sql) == warm_plans[sql], sql
            result = recovered.query(sql)
            assert result.column_names == warm_results[sql].column_names
            assert sorted(result.rows) == sorted(warm_results[sql].rows)
            for row, twin in zip(
                sorted(result.rows), sorted(warm_results[sql].rows)
            ):
                for a, b in zip(row, twin):
                    assert type(a) is type(b), (row, twin)

    def test_statistics_roundtrip_exactly(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        recovered = build_from_config(config)
        for table in ("customers", "orders"):
            a = warm.catalog.statistics(table)
            b = recovered.catalog.statistics(table)
            assert a is not None and b is not None
            assert a.to_dict() == b.to_dict()

    def test_epochs_monotone_across_restart(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        for _ in range(3):
            warm.notify_source_changed("crm")
        pre = warm.catalog.versions.snapshot()
        pre_catalog = warm.catalog.versions.catalog_epoch
        recovered = build_from_config(config)
        post = recovered.catalog.versions.snapshot()
        for source, epoch in pre.items():
            assert post.get(source, 0) >= epoch
        assert recovered.catalog.versions.catalog_epoch >= pre_catalog

    def test_midworkload_lifecycle_survives_restart(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        warm.query(WORKLOAD[0])
        warm.unregister_source("erp")  # mid-workload detach...
        warm.query("SELECT COUNT(*) FROM customers")

        recovered = build_from_config(config)
        assert not recovered.catalog.has_source("erp")
        assert not recovered.catalog.has_table("orders")
        assert recovered.catalog.has_table("customers")
        assert recovered.query("SELECT COUNT(*) FROM customers").scalar() == 4
        with pytest.raises(GISError):
            recovered.query("SELECT COUNT(*) FROM orders")

    def test_materialized_views_are_rebuilt(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        warm.query(
            "CREATE MATERIALIZED VIEW pricey WITH STALENESS 60000 AS "
            "SELECT oid, total FROM orders WHERE total > 500"
        )
        warm_rows = warm.query("SELECT * FROM pricey").rows

        recovered = build_from_config(config)
        assert recovered.materialized.has("pricey")
        result = recovered.query("SELECT * FROM pricey")
        assert sorted(result.rows) == sorted(warm_rows)
        assert result.metrics.network.materialized_view_hits == 1

    def test_materialized_view_survives_its_source_re_registered(
        self, tmp_path
    ):
        from repro.config import _build_link, _build_source

        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        warm.query(
            "CREATE MATERIALIZED VIEW pricey AS "
            "SELECT oid, total FROM orders WHERE total > 500"
        )
        warm_rows = warm.query("SELECT * FROM pricey").rows
        spec = config["sources"]["erp"]
        warm.unregister_source("erp")
        warm.register_source(
            "erp", _build_source("erp", spec),
            link=_build_link(spec["link"]), spec=spec,
        )
        warm.register_table("orders", source="erp", remote_table="ORDERS")
        # Now listed after the view that reads it; the second restart
        # replays from the snapshot the first one compacted to.
        for _ in range(2):
            recovered = build_from_config(config)
            assert recovered.catalog_recovery["skipped"] == []
            assert recovered.materialized.has("pricey")
            rows = recovered.query("SELECT * FROM pricey").rows
            assert sorted(rows) == sorted(warm_rows)

    def test_empty_or_missing_journal_is_a_cold_start(self, tmp_path):
        config = base_config(str(tmp_path / "catalog.jsonl"))
        gis = build_from_config(config)
        assert gis.catalog_recovery is not None
        assert not gis.catalog_recovery["recovered"]
        assert gis.catalog.source_names() == ["crm", "erp"]
        assert gis.query(WORKLOAD[0]).scalar() == 3

    def test_torn_final_write_is_dropped_not_fatal(self, tmp_path):
        journal = tmp_path / "catalog.jsonl"
        config = base_config(str(journal))
        build_from_config(config)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99999, "kind": "stats_upd')  # torn record
        recovered = build_from_config(config)
        assert recovered.catalog_recovery["recovered"]
        assert any(
            "truncated" in error for error in recovered.catalog_recovery["errors"]
        )
        assert recovered.query(WORKLOAD[0]).scalar() == 3

    def test_torn_first_record_is_cut_before_the_cold_start(self, tmp_path):
        journal = tmp_path / "catalog.jsonl"
        config = base_config(str(journal))
        build_from_config(config)
        first = journal.read_bytes()
        journal.write_bytes(first[: first.index(b"\n") // 2])
        build_from_config(config)  # cold start: re-registers from config
        recovered = build_from_config(config)
        assert recovered.catalog_recovery["recovered"]
        assert recovered.catalog_recovery["errors"] == []
        assert recovered.catalog.source_names() == ["crm", "erp"]
        assert recovered.query(WORKLOAD[0]).scalar() == 3

    def test_complete_lines_of_a_foreign_file_are_kept(self, tmp_path):
        journal = tmp_path / "catalog.jsonl"
        journal.write_bytes(b"not a journal\nstill not\npartial")
        gis = build_from_config(base_config(str(journal)))
        assert not gis.catalog_recovery["recovered"]
        lines = journal.read_bytes().split(b"\n")
        assert lines[:2] == [b"not a journal", b"still not"]
        assert json.loads(lines[2])["seq"] == 1

    def test_programmatic_source_is_skipped_with_report(self, tmp_path):
        from repro import MemorySource
        from repro.catalog.schema import schema_from_pairs

        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        extra = MemorySource("extra")
        extra.add_table(
            "things", schema_from_pairs("things", [("k", "INT")]), [(1,)]
        )
        warm.register_source("extra", extra)  # no spec: ephemeral
        warm.register_table("things", source="extra")

        recovered = build_from_config(config)
        assert recovered.catalog_recovery["skipped_sources"] == ["extra"]
        assert not recovered.catalog.has_source("extra")
        assert not recovered.catalog.has_table("things")
        # Everything declarative is still intact.
        assert recovered.query(WORKLOAD[0]).scalar() == 3

    def test_journal_compacts_on_recovery_and_snapshot_interval(self, tmp_path):
        journal = tmp_path / "catalog.jsonl"
        config = base_config(str(journal), snapshot_interval=4)
        warm = build_from_config(config)
        for _ in range(6):
            warm.notify_source_changed("crm")
        records = [
            json.loads(line) for line in open(journal, encoding="utf-8")
        ]
        assert any(record["kind"] == "snapshot" for record in records)

        build_from_config(config)
        compacted = [
            json.loads(line) for line in open(journal, encoding="utf-8")
        ]
        assert len(compacted) == 1
        assert compacted[0]["kind"] == "snapshot"
        # And the compacted snapshot alone still recovers everything.
        again = build_from_config(config)
        assert again.catalog_recovery["recovered"]
        assert again.query(WORKLOAD[0]).scalar() == 3

    def test_recovered_epoch_rejects_prior_life_admissions(self, tmp_path):
        """A fill computed under a pre-crash epoch must not be admitted
        into a recovered mediator whose clock moved past it."""
        config = base_config(str(tmp_path / "catalog.jsonl"))
        warm = build_from_config(config)
        warm.notify_source_changed("erp")
        pre_epoch = warm.catalog.versions.current("erp") - 1  # stale snapshot
        recovered = build_from_config(config)
        cache = recovered.fragment_cache
        cache._admit("k", "erp", None, [[(1,)]], 8, pre_epoch)
        assert cache.stats()["rejected_stale"] == 1
        assert cache.stats()["admissions"] == 0


# ---------------------------------------------------------------------------
# crash points: recovery must not depend on where the journal was cut
# ---------------------------------------------------------------------------

PRUNED_SQL = "SELECT name FROM all_customers WHERE id = 11"


def crash_config(journal_path: str) -> dict:
    """``base_config`` plus a second table on ``crm`` (for a prunable
    UNION ALL view) and a throwaway ``archive`` source to unregister."""
    config = base_config(journal_path)
    config["sources"]["crm"]["tables"]["CUSTOMERS_OLD"] = {
        "columns": [["id", "INT"], ["name", "TEXT"]],
        "rows": [[10, "Eve"], [11, "Finn"], [12, "Gus"]],
    }
    config["sources"]["archive"] = {
        "type": "memory",
        "tables": {"ARCHIVE": {"columns": [["k", "INT"]], "rows": [[1]]}},
    }
    config["tables"] += [
        {"name": "customers_old", "source": "crm",
         "remote_table": "CUSTOMERS_OLD"},
        {"name": "archive", "source": "archive", "remote_table": "ARCHIVE"},
    ]
    return config


def record_lifecycle_journal(path: str) -> bytes:
    """One life of lifecycle traffic; returns the journal it left."""
    gis = build_from_config(crash_config(path))  # registrations + ANALYZE
    gis.notify_source_changed("erp")
    gis.analyze(["orders"], sample_rows=2)  # journals exact = false
    gis.query(
        "CREATE MATERIALIZED VIEW pricey AS "
        "SELECT oid, total FROM orders WHERE total > 500"
    )
    gis.unregister_source("archive")
    gis.create_view(
        "all_customers",
        "SELECT id, name FROM customers UNION ALL "
        "SELECT id, name FROM customers_old",
    )
    assert "Union(pruned crm by id)" in gis.explain(PRUNED_SQL)
    with open(path, "rb") as handle:
        return handle.read()


def catalog_picture(gis) -> dict:
    """Everything recovery must reproduce: catalog status (minus the
    journal's own position, the replay report and runtime health),
    statistics, and EXPLAIN text — or the error EXPLAIN raises."""
    status = gis.catalog_status()
    for volatile in ("journal", "recovery", "health"):
        del status[volatile]
    # Snapshot replay re-creates materialized views after every table, so
    # only the listing order of a recovered catalog may differ.
    status["tables"].sort(key=lambda table: table["name"])
    statistics = {}
    for name in gis.catalog.table_names():
        stats = gis.catalog.statistics(name)
        if stats is not None:
            statistics[name] = stats.to_dict()
    plans = {}
    for sql in WORKLOAD + [PRUNED_SQL]:
        try:
            plans[sql] = gis.explain(sql)
        except GISError as exc:
            plans[sql] = f"{type(exc).__name__}: {exc}"
    return {"status": status, "statistics": statistics, "plans": plans}


def split_clock(picture: dict):
    """``(picture without version counters, the counters)``."""
    status = json.loads(json.dumps(picture["status"]))
    clock = {"catalog": status.pop("catalog_epoch")}
    for source in status["sources"]:
        clock["source " + source["name"]] = source.pop("epoch")
    for table in status["tables"]:
        clock["schema " + table["name"]] = table.pop("schema_version")
        clock["stats " + table["name"]] = table.pop("stats_version")
    return dict(picture, status=status), clock


def crash_offsets(journal: bytes):
    """Every record boundary ``b`` with ``b - 1`` and ``b + 1``, plus 8
    evenly spaced offsets inside each record."""
    offsets = {0, 1}
    start = 0
    while start < len(journal):
        end = journal.index(b"\n", start) + 1
        offsets.update({end - 1, end, end + 1})
        offsets.update(start + (end - start) * j // 9 for j in range(1, 9))
        start = end
    return sorted(t for t in offsets if t <= len(journal))


def test_recovery_is_independent_of_the_crash_point(tmp_path):
    journal = record_lifecycle_journal(str(tmp_path / "recorded.jsonl"))
    boundaries = [0] + [i + 1 for i, byte in enumerate(journal) if byte == 10]
    prefixes = {}
    # A restart is a function of the journal bytes it reads, so the second
    # restart is shared by every cut whose first one compacted alike.
    second_restarts = {}

    def restart(name: str, data: bytes, twice: bool = True):
        path = tmp_path / name
        path.write_bytes(data)
        config = crash_config(str(path))
        first = catalog_picture(build_from_config(config))
        if not twice:
            return first, None
        compacted = path.read_bytes()
        if compacted not in second_restarts:
            second_restarts[compacted] = catalog_picture(
                build_from_config(config)
            )
        return first, second_restarts[compacted]

    def prefix_picture(index: int) -> dict:
        if index not in prefixes:
            prefixes[index] = restart(
                f"prefix{index}.jsonl", journal[: boundaries[index]],
                twice=False,
            )[0]
        return prefixes[index]

    for offset in crash_offsets(journal):
        # The last newline-terminated prefix; a record cut only before
        # its newline is complete, so it may recover one record further.
        index = max(i for i, b in enumerate(boundaries) if b <= offset)
        allowed = [prefix_picture(index)]
        if index + 1 < len(boundaries) and offset == boundaries[index + 1] - 1:
            allowed.append(prefix_picture(index + 1))
        first, second = restart(f"cut{offset}.jsonl", journal[:offset])
        assert first in allowed, f"cut at byte {offset}"
        first_shape, first_clock = split_clock(first)
        second_shape, second_clock = split_clock(second)
        assert second_shape == first_shape, f"second restart, cut {offset}"
        for counter, value in first_clock.items():
            assert second_clock[counter] >= value, (offset, counter)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestCatalogConfig:
    def test_unknown_key_rejected(self, tmp_path):
        config = base_config(str(tmp_path / "j.jsonl"))
        config["catalog"]["journal_pth"] = "typo"
        with pytest.raises(CatalogError, match="journal_pth"):
            build_from_config(config)

    def test_journal_must_be_path_string(self, tmp_path):
        config = base_config(str(tmp_path / "j.jsonl"))
        config["catalog"]["journal"] = 7
        with pytest.raises(CatalogError, match="journal"):
            build_from_config(config)

    def test_snapshot_interval_must_be_positive(self, tmp_path):
        config = base_config(str(tmp_path / "j.jsonl"), snapshot_interval=0)
        with pytest.raises(CatalogError, match="snapshot_interval"):
            build_from_config(config)

    def test_recover_on_start_must_be_boolean(self, tmp_path):
        config = base_config(str(tmp_path / "j.jsonl"))
        config["catalog"]["recover_on_start"] = "yes"
        with pytest.raises(CatalogError, match="recover_on_start"):
            build_from_config(config)

    def test_journal_without_recovery_still_records(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        config = base_config(str(journal), recover_on_start=False)
        gis = build_from_config(config)
        assert gis.catalog_recovery is None
        assert journal.exists()
        assert gis.catalog_journal.position()["seq"] > 0


# ---------------------------------------------------------------------------
# property: epochs are monotone under arbitrary interleavings & restarts
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.sampled_from(["a", "b", "c"])),
        st.tuples(st.just("bump_all"), st.none()),
        st.tuples(st.just("schema"), st.sampled_from(["t1", "t2"])),
        st.tuples(st.just("stats"), st.sampled_from(["t1", "t2"])),
        st.tuples(st.just("catalog"), st.none()),
        st.tuples(st.just("restart"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_versions_monotone_under_interleavings_and_restarts(ops):
    """Whatever the event interleaving — including restarts that persist
    and restore the vector mid-stream — no counter ever goes backwards."""
    versions = CatalogVersions()
    watched_sources = ("a", "b", "c")
    watched_tables = ("t1", "t2")

    def observe():
        return (
            {s: versions.current(s) for s in watched_sources},
            {t: versions.schema_version(t) for t in watched_tables},
            {t: versions.stats_version(t) for t in watched_tables},
            versions.catalog_epoch,
        )

    last = observe()
    for op, arg in ops:
        if op == "bump":
            versions.bump(arg)
        elif op == "bump_all":
            versions.bump_all()
        elif op == "schema":
            versions.bump_schema(arg)
        elif op == "stats":
            versions.bump_stats(arg)
        elif op == "catalog":
            versions.bump_catalog()
        elif op == "restart":
            state = versions.state()
            assert state == json.loads(json.dumps(state))  # JSON-safe
            versions = CatalogVersions()
            versions.restore(state)
        now = observe()
        for source in watched_sources:
            assert now[0][source] >= last[0][source], (op, arg)
        for table in watched_tables:
            assert now[1][table] >= last[1][table], (op, arg)
            assert now[2][table] >= last[2][table], (op, arg)
        assert now[3] >= last[3], (op, arg)
        last = now


@settings(max_examples=40, deadline=None)
@given(
    bumps=st.lists(st.sampled_from(["a", "b"]), max_size=20),
    replay_bumps=st.lists(st.sampled_from(["a", "b"]), max_size=20),
)
def test_restore_is_a_max_merge(bumps, replay_bumps):
    """Replay-side bumps never push the restored clock *behind* the
    journaled one, and the journaled clock never erases replay progress."""
    old = CatalogVersions()
    for source in bumps:
        old.bump(source)
    fresh = CatalogVersions()
    for source in replay_bumps:
        fresh.bump(source)
    pre_restore = fresh.snapshot()
    fresh.restore(old.state())
    for source in ("a", "b"):
        assert fresh.current(source) >= old.current(source)
        assert fresh.current(source) >= pre_restore.get(source, 0)
