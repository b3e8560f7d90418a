"""Property-based differential testing: random queries vs a Python oracle.

Hypothesis composes random (but valid) WHERE clauses, projections, and
aggregations over the small two-source federation; the distributed engine's
answer must match both the reference interpreter and a direct Python
evaluation of the same predicate.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .conftest import CUSTOMERS, ORDERS, assert_same_rows, make_small_gis
from .reference import reference_query

# One shared federation: queries are read-only.
GIS = make_small_gis()

_COLUMNS = {
    "oid": ("int", [row[0] for row in ORDERS]),
    "cust_id": ("int", [row[1] for row in ORDERS]),
    "total": ("float", [row[2] for row in ORDERS]),
    "status": ("text", [row[4] for row in ORDERS]),
}

_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def simple_predicate(draw):
    """(sql_text, python_fn) over the `orders` table."""
    column = draw(st.sampled_from(sorted(_COLUMNS)))
    kind, values = _COLUMNS[column]
    operator = draw(st.sampled_from(_COMPARISONS))
    if kind == "int":
        literal = draw(st.integers(-5, 120))
        sql_literal = str(literal)
    elif kind == "float":
        literal = float(draw(st.integers(0, 1100)))
        sql_literal = repr(literal)
    else:
        literal = draw(st.sampled_from(["OPEN", "SHIPPED", "RETURNED", "zzz"]))
        sql_literal = f"'{literal}'"
    index = ["oid", "cust_id", "total", "odate", "status"].index(column)

    def check(row):
        value = row[index]
        if value is None:
            return False
        return {
            "=": value == literal,
            "<>": value != literal,
            "<": value < literal,
            "<=": value <= literal,
            ">": value > literal,
            ">=": value >= literal,
        }[operator]

    return f"{column} {operator} {sql_literal}", check


@st.composite
def predicate_tree(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(simple_predicate())
    connective = draw(st.sampled_from(["AND", "OR"]))
    left_sql, left_fn = draw(predicate_tree(depth=depth - 1))
    right_sql, right_fn = draw(predicate_tree(depth=depth - 1))
    sql = f"({left_sql} {connective} {right_sql})"
    if connective == "AND":
        return sql, lambda row: left_fn(row) and right_fn(row)
    return sql, lambda row: left_fn(row) or right_fn(row)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(predicate_tree())
def test_random_filters_match_python_oracle(tree):
    sql_predicate, check = tree
    result = GIS.query(f"SELECT oid FROM orders WHERE {sql_predicate}")
    expected = sorted(row[0] for row in ORDERS if check(row))
    assert sorted(r[0] for r in result.rows) == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(predicate_tree(), st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]))
def test_random_aggregates_match_python_oracle(tree, function):
    sql_predicate, check = tree
    result = GIS.query(
        f"SELECT {function}(total) FROM orders WHERE {sql_predicate}"
    )
    totals = [row[2] for row in ORDERS if check(row)]
    value = result.scalar()
    if function == "COUNT":
        assert value == len(totals)
    elif not totals:
        assert value is None
    elif function == "SUM":
        assert value == pytest.approx(sum(totals))
    elif function == "AVG":
        assert value == pytest.approx(sum(totals) / len(totals))
    elif function == "MIN":
        assert value == min(totals)
    else:
        assert value == max(totals)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(predicate_tree())
def test_random_join_filters_match_reference(tree):
    sql_predicate, _ = tree
    sql = (
        "SELECT c.name, o.oid FROM customers c "
        f"JOIN orders o ON c.id = o.cust_id WHERE {sql_predicate}"
    )
    result = GIS.query(sql)
    _, reference = reference_query(GIS, sql)
    assert_same_rows(result.rows, reference)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10), st.integers(0, 10))
def test_random_limit_offset_window(limit, offset):
    result = GIS.query(
        f"SELECT oid FROM orders ORDER BY oid LIMIT {limit} OFFSET {offset}"
    )
    ordered = sorted(row[0] for row in ORDERS)
    assert [r[0] for r in result.rows] == ordered[offset : offset + limit]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(-5, 20), min_size=1, max_size=8))
def test_random_in_lists(values):
    literals = ", ".join(map(str, values))
    result = GIS.query(f"SELECT id FROM customers WHERE id IN ({literals})")
    expected = sorted(
        {row[0] for row in CUSTOMERS if row[0] in set(values)}
    )
    assert sorted(r[0] for r in result.rows) == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(predicate_tree(), st.integers(1, 16))
def test_random_filters_invariant_under_batch_size(tree, batch_size):
    # The batch-at-a-time executor is a pure dataflow change: any batch
    # size (including awkward ones that never divide the input evenly)
    # must produce bit-identical rows and network accounting.
    from repro import PlannerOptions

    sql_predicate, _ = tree
    sql = (
        "SELECT c.name, o.oid FROM customers c "
        f"JOIN orders o ON c.id = o.cust_id WHERE {sql_predicate} "
        "ORDER BY o.oid"
    )
    default = GIS.query(sql)
    variant = GIS.query(sql, PlannerOptions(batch_size=batch_size))
    assert variant.rows == default.rows
    assert variant.metrics.network.messages == default.metrics.network.messages
    assert variant.metrics.network.bytes_shipped == \
        default.metrics.network.bytes_shipped
