"""Conditional expressions evaluate lazily, as SQL engines do.

``CAST`` raises on a value it cannot convert, so a guard in front of it
must keep the rows it excludes away from it: CASE runs a branch only over
the rows that reach it, AND/OR run their right operand only over the rows
the left one leaves undecided, and an IN list stops at the first item that
matches. Each query runs through ``gis.query`` on a scan-only in-memory
source (the mediator's kernels evaluate it) and on a default-capability
one (the fragment runs inside the wrapper), and must return what stdlib
``sqlite3`` returns over the same rows.
"""

import sqlite3

import pytest

from repro import GlobalInformationSystem, MemorySource, SourceCapabilities
from repro.catalog.schema import schema_from_pairs

from .reference import reference_query

ROWS = [(1, "1"), (2, "x"), (3, "7")]

QUERIES = [
    "SELECT id, CASE WHEN s = 'x' THEN 0 ELSE CAST(s AS INTEGER) END FROM t",
    "SELECT id FROM t "
    "WHERE CASE WHEN s = 'x' THEN 0 ELSE CAST(s AS INTEGER) END > 0",
    "SELECT id, CASE WHEN s <> 'x' THEN CAST(s AS INTEGER) END FROM t",
    "SELECT id FROM t WHERE s <> 'x' AND CAST(s AS INTEGER) > 0",
    "SELECT id FROM t WHERE s = 'x' OR CAST(s AS INTEGER) > 5",
    "SELECT id, CASE s WHEN 'x' THEN -1 WHEN '1' THEN 10 "
    "ELSE CAST(s AS INTEGER) END FROM t",
    "SELECT id FROM t WHERE id IN (2, CAST(s AS INTEGER))",
]


def sqlite_rows(sql):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER, s TEXT)")
    connection.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    try:
        return connection.execute(sql + " ORDER BY id").fetchall()
    finally:
        connection.close()


def build(capabilities):
    gis = GlobalInformationSystem()
    source = MemorySource("mem", capabilities=capabilities)
    source.add_table("t", schema_from_pairs("t", [("id", "INT"), ("s", "TEXT")]), ROWS)
    gis.register_source("mem", source)
    gis.register_table("t", source="mem")
    return gis


@pytest.mark.parametrize(
    "capabilities",
    [SourceCapabilities.scan_only(), None],
    ids=["scan-only", "default"],
)
@pytest.mark.parametrize("sql", QUERIES)
def test_guarded_cast_matches_sqlite(capabilities, sql):
    gis = build(capabilities)
    assert gis.query(sql + " ORDER BY id").rows == sqlite_rows(sql)


def test_unguarded_bad_cast_still_raises():
    from repro.errors import ExecutionError

    gis = build(SourceCapabilities.scan_only())
    with pytest.raises(ExecutionError, match="cannot coerce"):
        gis.query("SELECT CAST(s AS INTEGER) FROM t")


NULL_OPERAND_QUERIES = [
    "SELECT id, CAST(s AS INTEGER) + NULL FROM t",
    "SELECT id, NULL * CAST(s AS INTEGER) FROM t",
    "SELECT id FROM t WHERE CAST(s AS INTEGER) = NULL OR id = 2",
]


@pytest.mark.parametrize("sql", NULL_OPERAND_QUERIES)
def test_null_literal_operand_skips_the_other_side(sql):
    """A NULL-literal operand makes the result NULL without evaluating the
    other operand, in the engine and in the row oracle alike."""
    gis = build(SourceCapabilities.scan_only())
    expected = sqlite_rows(sql)
    assert gis.query(sql + " ORDER BY id").rows == expected
    assert sorted(reference_query(gis, sql)[1]) == expected
