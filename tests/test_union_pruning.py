"""UNION ALL branch pruning from exact statistics, and transitive keys.

The physical planner leaves out a branch whose pushed predicate
contradicts its table's *exact* ANALYZE min/max. Sampled or absent
statistics never prune, ``notify_source_changed`` un-prunes until the next
ANALYZE, a recovered catalog prunes identically, and a plan-cache rebind
is pruned for its own literal.
"""

from __future__ import annotations

import pytest

from repro import build_from_config
from repro.cache.keys import ColumnConstraint
from repro.catalog.statistics import TableStatistics
from repro.core.physical import StaticRowsExec

SHARDS = 4
SHARD_ROWS = 25
COLUMNS = [["id", "INT"], ["label", "TEXT"], ["amount", "FLOAT"]]
RANGE_SQL = "SELECT id, label FROM parts WHERE id BETWEEN 30 AND 40"


def shard_rows(index):
    """Shard ``index`` holds ids ``25 * index + 1`` to ``25 * (index + 1)``."""
    low = index * SHARD_ROWS + 1
    return [[i, f"r{i}", float(i % 7)] for i in range(low, low + SHARD_ROWS)]


def config(journal=None):
    spec = {
        "sources": {
            f"s{i}": {
                "type": "memory",
                "tables": {"part": {"columns": COLUMNS, "rows": shard_rows(i)}},
            }
            for i in range(SHARDS)
        },
        "tables": [
            {"name": f"part{i}", "source": f"s{i}", "remote_table": "part"}
            for i in range(SHARDS)
        ],
        "views": {
            "parts": " UNION ALL ".join(
                f"SELECT * FROM part{i}" for i in range(SHARDS)
            )
        },
        "plan_cache_size": 16,
    }
    if journal is not None:
        spec["catalog"] = {"journal": journal, "recover_on_start": True}
    return spec


def union_line(gis, sql):
    (line,) = [
        line.strip()
        for line in gis.plan(sql).physical.explain().splitlines()
        if line.strip().startswith("Union")
    ]
    return line


def test_explain_names_the_pruned_branches():
    gis = build_from_config(config())
    gis.analyze()
    assert union_line(gis, RANGE_SQL) == "Union(pruned s0, s2, s3 by id)"
    result = gis.query(RANGE_SQL)
    assert sorted(result.rows) == [(i, f"r{i}") for i in range(30, 41)]
    assert result.metrics.network.fragments_executed == 1


def test_sampled_and_absent_statistics_never_prune():
    gis = build_from_config(config())
    assert union_line(gis, RANGE_SQL) == "Union"
    gis.analyze(sample_rows=5)
    assert not gis.catalog.statistics("part1").exact
    assert union_line(gis, RANGE_SQL) == "Union"
    assert gis.query(RANGE_SQL).metrics.network.fragments_executed == SHARDS


def test_notify_unprunes_until_the_next_analyze():
    gis = build_from_config(config())
    gis.analyze()
    gis.catalog.source("s0").extend_table("part", [(35, "moved", 0.0)])
    gis.notify_source_changed("s0")
    assert union_line(gis, RANGE_SQL) == "Union(pruned s2, s3 by id)"
    assert (35, "moved") in gis.query(RANGE_SQL).rows
    gis.notify_source_changed("s2")
    assert union_line(gis, RANGE_SQL) == "Union(pruned s3 by id)"
    gis.analyze()
    assert union_line(gis, RANGE_SQL) == "Union(pruned s2, s3 by id)"


def test_journal_restart_explains_byte_identically(tmp_path):
    journal = str(tmp_path / "catalog.jsonl")
    warm = build_from_config(config(journal))
    warm.analyze()
    warm.notify_source_changed("s3")
    before = warm.explain(RANGE_SQL)
    assert "Union(pruned s0, s2 by id)" in before
    recovered = build_from_config(config(journal))
    assert recovered.catalog_recovery["recovered"]
    assert recovered.explain(RANGE_SQL) == before


def test_plan_cache_rebind_into_another_shard():
    gis = build_from_config(config())
    gis.analyze()
    template = "SELECT id, label FROM parts WHERE id = {}"
    assert gis.query(template.format(3)).rows == [(3, "r3")]
    for key in (80, 42, 3, 100, 1000):
        result = gis.query(template.format(key))
        assert result.metrics.network.plan_cache_hit
        assert result.rows == ([(key, f"r{key}")] if key <= 100 else [])
    assert gis.plan_cache.stats()["fallbacks"] == 0


def test_union_pruned_to_nothing_is_empty_and_full_width():
    gis = build_from_config(config())
    gis.analyze()
    sql = "SELECT * FROM parts WHERE id > 500"
    (empty,) = [
        op for op in gis.plan(sql).physical.walk()
        if isinstance(op, StaticRowsExec)
    ]
    assert len(empty.columns) == 3
    result = gis.query(sql)
    assert result.rows == []
    assert result.column_names == ["id", "label", "amount"]
    assert result.metrics.network.messages == 0


def test_exact_flag_is_journaled_and_defaults_off():
    stats = TableStatistics(row_count=2.0)
    assert not stats.exact
    stats.exact = True
    data = stats.to_dict()
    assert TableStatistics.from_dict(data).exact
    del data["exact"]  # statistics journaled before the flag existed
    assert not TableStatistics.from_dict(data).exact


@pytest.mark.parametrize(
    "constraint, excluded",
    [
        (ColumnConstraint(eq_values=frozenset({0, 11})), True),
        (ColumnConstraint(eq_values=frozenset({0, 5})), False),
        (ColumnConstraint(lo=10, lo_strict=True), True),
        (ColumnConstraint(lo=10), False),
        (ColumnConstraint(hi=1, hi_strict=True), True),
        (ColumnConstraint(hi=1), False),
        (ColumnConstraint(not_null=True), False),
        (ColumnConstraint(is_null=True), False),
        (ColumnConstraint(eq_values=frozenset({"x"})), False),
    ],
)
def test_excludes_range(constraint, excluded):
    assert constraint.excludes_range(1, 10) is excluded


def test_key_join_carries_the_key_into_every_branch_and_rebinds():
    gis = build_from_config(config())
    gis.analyze()
    fresh = build_from_config({**config(), "plan_cache_size": 0})
    fresh.analyze()
    for g in (gis, fresh):
        g.create_view(
            "keys", "SELECT id AS kid, label AS name FROM part0"
        )
    template = (
        "SELECT k.name, p.id, p.amount FROM keys k JOIN parts p "
        "ON k.kid = p.id WHERE k.kid = {}"
    )
    gis.query(template.format(3))
    assert union_line(gis, template.format(3)) == (
        "Union(pruned s1, s2, s3 by id)"
    )
    for key in (7, 20, 60):
        result = gis.query(template.format(key))
        assert result.metrics.network.plan_cache_hit
        assert sorted(result.rows) == sorted(fresh.query(template.format(key)).rows)
    assert gis.plan_cache.stats()["fallbacks"] == 0
