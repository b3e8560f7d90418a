"""Differential testing of fragment SQL compilation against real SQLite.

Random (but dialect-valid) queries are pushed to a SQLiteSource — which
compiles them to native SQL — and the same queries run through the
test suite's reference interpreter (``tests/reference.py``) over the same
rows. Any divergence is either a printer/compiler bug or a semantic
mismatch between our evaluator and SQLite; both are worth failing on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GlobalInformationSystem, NetworkLink, SQLiteSource
from repro.catalog.schema import schema_from_pairs

from .conftest import assert_same_rows
from .reference import reference_query

ROWS = [
    (i, f"name{i % 5}", float(i * 7 % 97), (i % 4) or None)
    for i in range(120)
]


def build_gis():
    gis = GlobalInformationSystem()
    source = SQLiteSource("db")
    schema = schema_from_pairs(
        "t", [("id", "INT"), ("name", "TEXT"), ("score", "FLOAT"), ("grp", "INT")]
    )
    source.load_table("t", schema, ROWS)
    gis.register_source("db", source, link=NetworkLink(1.0, 1e9))
    gis.register_table("t", source="db")
    gis.analyze()
    return gis


GIS = build_gis()


def check(sql):
    engine = GIS.query(sql)
    _, reference = reference_query(GIS, sql)
    assert_same_rows(engine.rows, reference)


comparison = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def predicate(draw):
    column = draw(st.sampled_from(["id", "score", "grp"]))
    operator = draw(comparison)
    value = draw(st.integers(-3, 130))
    return f"{column} {operator} {value}"


@st.composite
def where_clause(draw):
    parts = draw(st.lists(predicate(), min_size=1, max_size=3))
    connectives = draw(
        st.lists(st.sampled_from(["AND", "OR"]), min_size=len(parts) - 1,
                 max_size=len(parts) - 1)
    )
    text = parts[0]
    for connective, part in zip(connectives, parts[1:]):
        text = f"({text} {connective} {part})"
    return text


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(where_clause())
def test_filters_compiled_to_sqlite_match_interpreter(where):
    check(f"SELECT id, name FROM t WHERE {where}")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    st.sampled_from(["id", "score", "grp"]),
    where_clause(),
)
def test_aggregates_compiled_to_sqlite_match_interpreter(function, column, where):
    check(
        f"SELECT grp, {function}({column}) FROM t WHERE {where} GROUP BY grp"
    )


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["id", "name", "score"]),
    st.booleans(),
    st.integers(1, 20),
)
def test_order_limit_compiled_to_sqlite(column, ascending, limit):
    direction = "" if ascending else " DESC"
    sql = f"SELECT id, {column} FROM t ORDER BY {column}{direction}, id LIMIT {limit}"
    engine = GIS.query(sql)
    _, reference = reference_query(GIS, sql)
    # Order matters here: the secondary `id` key makes ordering total.
    assert engine.rows == reference


FIXED_QUERIES = [
    # expression-heavy select lists
    "SELECT id, score * 2 + 1, UPPER(name) FROM t WHERE id < 20",
    "SELECT id, CASE WHEN score > 50 THEN 'hi' ELSE 'lo' END FROM t WHERE id < 30",
    "SELECT id, COALESCE(grp, -1) FROM t WHERE id < 25",
    "SELECT id, CAST(score AS INTEGER) FROM t WHERE id < 25",
    "SELECT id, SUBSTR(name, 1, 4) || '!' FROM t WHERE id < 15",
    # NULL handling in the pushed dialect
    "SELECT id FROM t WHERE grp IS NULL",
    "SELECT id FROM t WHERE grp IS NOT NULL AND grp <> 2",
    "SELECT grp, COUNT(grp), COUNT(*) FROM t GROUP BY grp",
    # LIKE and IN
    "SELECT id FROM t WHERE name LIKE 'name1%'",
    "SELECT id FROM t WHERE grp IN (1, 3)",
    "SELECT id FROM t WHERE grp NOT IN (1, 3)",
    "SELECT id FROM t WHERE score BETWEEN 10 AND 40",
    # distinct / self-join pushdown (whole join goes to the source)
    "SELECT DISTINCT name FROM t",
    "SELECT a.id FROM t a JOIN t b ON a.id = b.grp WHERE b.score > 50",
    "SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.grp = b.id AND b.id < 3 WHERE a.id < 10",
    # aggregates with HAVING pushed whole
    "SELECT name, AVG(score) FROM t GROUP BY name HAVING COUNT(*) > 20",
    # union of two pushed selects
    "SELECT id FROM t WHERE id < 5 UNION ALL SELECT id FROM t WHERE id > 115",
    "SELECT grp FROM t WHERE id < 50 UNION SELECT grp FROM t WHERE id >= 50",
]


@pytest.mark.parametrize("sql", FIXED_QUERIES)
def test_fixed_dialect_corpus(sql):
    check(sql)


def test_everything_actually_pushed():
    """Sanity: these queries must run AT the SQLite source, not above it."""
    from repro.core.logical import RemoteQueryOp

    planned = GIS.plan(FIXED_QUERIES[13])  # the self-join
    assert isinstance(planned.distributed, RemoteQueryOp)
