"""Eager aggregation below cross-source joins, checked against stdlib
``sqlite3``, which shares no code with the engine.

The federation spreads three tables over three sources: ``facts`` on a
SQLite source, ``dims`` on an in-memory source and ``links`` on a second
SQLite source. Join keys repeat and hold NULLs on both sides, and the
aggregate arguments hold NULLs, so a partial row is replicated by duplicate
keys and dropped by NULL ones exactly as the raw rows would have been.
Every query runs at three batch sizes with and without forced semijoins;
INTEGER and TEXT values must match exactly, FLOAT ones to a relative 1e-9
(a pushed partial SUM re-associates the additions).
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
    SQLiteSource,
)
from repro.catalog.schema import schema_from_pairs
from repro.core.logical import AggregateOp, RemoteQueryOp

TABLES = {
    "facts": [
        ("f_id", "INT"), ("f_key", "INT"), ("f_grp", "TEXT"),
        ("f_val", "FLOAT"), ("f_qty", "INT"),
    ],
    "dims": [("d_key", "INT"), ("d_cat", "TEXT"), ("d_link", "INT"), ("d_w", "INT")],
    "links": [("k_id", "INT"), ("k_region", "TEXT")],
}

ROWS = {
    "facts": [
        (
            i,
            None if i % 11 == 0 else i % 9,
            None if i % 17 == 0 else "abc"[i % 3],
            None if i % 7 == 0 else round(i * 0.37 + 0.5, 2),
            None if i % 5 == 0 else i % 13,
        )
        for i in range(240)
    ],
    # d_key 1 and 3 repeat, two rows have no key; key 8 has no fact.
    "dims": [
        (key, "xyz"[j % 3], None if j == 5 else j % 4, j)
        for j, key in enumerate([0, 1, 1, 2, 3, 3, 3, 4, 5, None, 6, 7, 8, None])
    ],
    # k_id 2 repeats, so the chain replicates its matches twice.
    "links": [(0, "north"), (1, "south"), (2, "east"), (2, "west"), (9, "none")],
}

QUERIES = [
    # every decomposable function, grouped by the other side
    "SELECT d.d_cat, COUNT(*), COUNT(f.f_val), SUM(f.f_val), MIN(f.f_val), "
    "MAX(f.f_val), AVG(f.f_val), SUM(f.f_qty) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key GROUP BY d.d_cat",
    # grouped by the aggregated side
    "SELECT f.f_grp, COUNT(*), SUM(f.f_qty), AVG(f.f_qty), MIN(f.f_grp) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key GROUP BY f.f_grp",
    # grouped by both sides
    "SELECT d.d_cat, f.f_grp, COUNT(*), MAX(f.f_val), AVG(f.f_val) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key GROUP BY d.d_cat, f.f_grp",
    # a three-input chain with a filter on the aggregated input
    "SELECT k.k_region, SUM(f.f_val), COUNT(f.f_qty), MIN(f.f_qty) "
    "FROM links k JOIN dims d ON k.k_id = d.d_link "
    "JOIN facts f ON d.d_key = f.f_key WHERE f.f_qty >= 2 GROUP BY k.k_region",
    # COUNT(*) alone may group any input
    "SELECT k.k_region, COUNT(*) FROM links k JOIN dims d ON k.k_id = d.d_link "
    "JOIN facts f ON d.d_key = f.f_key GROUP BY k.k_region",
    # a residual that references the aggregated input
    "SELECT d.d_cat, SUM(f.f_qty), COUNT(*) FROM dims d JOIN facts f "
    "ON d.d_key = f.f_key AND f.f_qty > d.d_w GROUP BY d.d_cat",
    # no GROUP BY, over a non-empty and an empty join
    "SELECT COUNT(*), SUM(f.f_val), AVG(f.f_qty) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key",
    "SELECT COUNT(*), COUNT(f.f_val), SUM(f.f_val), MAX(f.f_qty) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key WHERE d.d_cat = 'none'",
    # HAVING over the final aggregate
    "SELECT d.d_cat, SUM(f.f_val) FROM dims d JOIN facts f "
    "ON d.d_key = f.f_key GROUP BY d.d_cat HAVING COUNT(*) > 30",
    # arguments on the in-memory side
    "SELECT f.f_grp, SUM(d.d_w), MAX(d.d_cat), COUNT(d.d_link) "
    "FROM dims d JOIN facts f ON d.d_key = f.f_key GROUP BY f.f_grp",
]

#: Queries whose aggregated input is ``facts``: the gate must push them.
EAGER = QUERIES[:9]


def build(fragment_cache_bytes: int = 0, plan_cache_size: int = 0):
    gis = GlobalInformationSystem(
        fragment_cache_bytes=fragment_cache_bytes,
        plan_cache_size=plan_cache_size,
    )
    wh = SQLiteSource("wh")
    wh.load_table("facts", schema_from_pairs("facts", TABLES["facts"]), ROWS["facts"])
    ref = MemorySource("ref")
    ref.add_table("dims", schema_from_pairs("dims", TABLES["dims"]), ROWS["dims"])
    crm = SQLiteSource("crm")
    crm.load_table("links", schema_from_pairs("links", TABLES["links"]), ROWS["links"])
    for name, adapter in (("wh", wh), ("ref", ref), ("crm", crm)):
        gis.register_source(name, adapter, link=NetworkLink(20.0, 500_000.0))
    for table, source in (("facts", "wh"), ("dims", "ref"), ("links", "crm")):
        gis.register_table(table, source=source)
    gis.analyze()
    return gis


def oracle():
    connection = sqlite3.connect(":memory:")
    for table, columns in TABLES.items():
        spec = ", ".join(f"{name} {kind}" for name, kind in columns)
        connection.execute(f"CREATE TABLE {table} ({spec})")
        marks = ", ".join("?" for _ in columns)
        connection.executemany(f"INSERT INTO {table} VALUES ({marks})", ROWS[table])
    return connection


GIS = build()
ORACLE = oracle()


def sort_key(row):
    return tuple(
        (value is None, round(value, 6) if isinstance(value, float) else value)
        for value in row
    )


def assert_matches_oracle(rows, sql):
    expected = sorted(ORACLE.execute(sql).fetchall(), key=sort_key)
    actual = sorted(rows, key=sort_key)
    assert len(actual) == len(expected), (actual, expected)
    for got_row, want_row in zip(actual, expected):
        assert len(got_row) == len(want_row)
        for got, want in zip(got_row, want_row):
            if isinstance(got, float) or isinstance(want, float):
                assert isinstance(got, float) and isinstance(want, (int, float))
                assert math.isclose(got, want, rel_tol=1e-9), (got_row, want_row)
            else:
                assert got == want and type(got) is type(want), (got_row, want_row)


def pushed_partials(planned):
    """Remote fragments that group their rows at the source."""
    return [
        node
        for node in planned.distributed.walk()
        if isinstance(node, RemoteQueryOp)
        and any(isinstance(inner, AggregateOp) for inner in node.fragment.walk())
    ]


@pytest.mark.parametrize("semijoin", ["auto", "force"])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("sql", QUERIES)
def test_matches_sqlite3(sql, batch_size, semijoin):
    options = PlannerOptions(batch_size=batch_size, semijoin=semijoin)
    assert_matches_oracle(GIS.query(sql, options).rows, sql)


@pytest.mark.parametrize("sql", EAGER)
def test_gate_pushes_the_partial(sql):
    assert pushed_partials(GIS.plan(sql))
    assert not pushed_partials(GIS.plan(sql, PlannerOptions(partial_aggregation=False)))


def test_ships_fewer_rows_and_bytes():
    sql = QUERIES[0]
    eager = GIS.query(sql).metrics
    plain = GIS.query(sql, PlannerOptions(partial_aggregation=False)).metrics
    assert eager.rows_shipped * 5 < plain.rows_shipped
    assert eager.bytes_shipped < plain.bytes_shipped


@pytest.mark.parametrize("sql", [QUERIES[3], QUERIES[7]])
def test_plan_cache_rebind_keeps_rows(sql):
    """A cache hit with a new literal reuses the generic plan's eager
    decision; its rows match a fresh plan's and the oracle's."""
    cached = build(plan_cache_size=8)
    rebound = sql.replace(">= 2", ">= 9").replace("'none'", "'y'")
    first = cached.query(sql)
    assert not first.metrics.network.plan_cache_hit
    assert_matches_oracle(first.rows, sql)
    hit = cached.query(rebound)
    assert hit.metrics.network.plan_cache_hit
    assert sorted(hit.rows, key=sort_key) == sorted(
        GIS.query(rebound).rows, key=sort_key
    )
    assert_matches_oracle(hit.rows, rebound)


#: Literals inside aggregate arguments: SUM and AVG first read the same
#: argument, and the rebound AVG reads a different one.
ARGUMENT_LITERALS = [
    # eager aggregation below a join
    (
        "SELECT d.d_cat, SUM(f.f_qty + 1), AVG(f.f_qty + 1) FROM dims d "
        "JOIN facts f ON d.d_key = f.f_key GROUP BY d.d_cat",
        "SELECT d.d_cat, SUM(f.f_qty + 1), AVG(f.f_qty + 5) FROM dims d "
        "JOIN facts f ON d.d_key = f.f_key GROUP BY d.d_cat",
    ),
    # partial aggregation through UNION ALL
    (
        "SELECT SUM(u.q + 1), AVG(u.q + 1), COUNT(*) FROM "
        "(SELECT f_qty AS q FROM facts UNION ALL SELECT d_w AS q FROM dims) u",
        "SELECT SUM(u.q + 1), AVG(u.q + 5), COUNT(*) FROM "
        "(SELECT f_qty AS q FROM facts UNION ALL SELECT d_w AS q FROM dims) u",
    ),
]


@pytest.mark.parametrize("sql, rebound", ARGUMENT_LITERALS)
def test_plan_cache_rebinds_aggregate_arguments(sql, rebound):
    """Equal arguments with different parameter slots keep separate
    partial calls, so a rebind changes only the literal it names."""
    cached = build(plan_cache_size=8)
    assert pushed_partials(cached.plan(sql))
    assert_matches_oracle(cached.query(sql).rows, sql)
    hit = cached.query(rebound)
    assert hit.metrics.network.plan_cache_hit
    assert_matches_oracle(hit.rows, rebound)


def test_fragment_cache_mediator_plans_as_before():
    """With a fragment cache the rule stays off: grouped fragments replay
    only on an exact key, raw ones by subsumption."""
    cached = build(fragment_cache_bytes=1_000_000)
    plain = PlannerOptions(partial_aggregation=False)
    for sql in QUERIES:
        assert not pushed_partials(cached.plan(sql))
        assert cached.explain(sql) == GIS.explain(sql, plain)
        assert_matches_oracle(cached.query(sql).rows, sql)
