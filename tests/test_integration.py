"""End-to-end differential testing on the TPC-H-lite federation.

Every query runs twice: through the full optimized, distributed engine and
through the unoptimized reference interpreter; row multisets must agree.
"""

import pytest

from repro import PlannerOptions

from .conftest import assert_same_rows
from .reference import reference_query

# A broad catalog of query shapes over all six sources.
QUERIES = [
    # single-source, per source class
    "SELECT COUNT(*) FROM regions",
    "SELECT n_name FROM nations WHERE n_region_id = 3 ORDER BY n_name",
    "SELECT c_name, c_balance FROM customers WHERE c_balance > 5000",
    "SELECT o_status, COUNT(*), SUM(o_total) FROM orders GROUP BY o_status",
    "SELECT p_category, AVG(p_price) FROM parts GROUP BY p_category",
    "SELECT s_name FROM suppliers WHERE s_rating = 5",
    "SELECT u_tier, COUNT(*) FROM profiles GROUP BY u_tier",
    # filters of varied shapes
    "SELECT o_id FROM orders WHERE o_total BETWEEN 100 AND 200",
    "SELECT c_name FROM customers WHERE c_segment IN ('BUILDING', 'MACHINERY') AND c_balance < 0",
    "SELECT c_name FROM customers WHERE c_name LIKE 'A%'",
    "SELECT o_id FROM orders WHERE o_date >= DATE '1989-06-01' AND o_status <> 'RETURNED'",
    "SELECT p_name FROM parts WHERE p_price > 500 OR p_category = 'TOOLING'",
    "SELECT c_name FROM customers WHERE c_nation_id IS NOT NULL LIMIT 5",
    # two-source joins
    "SELECT c.c_name, o.o_total FROM customers c JOIN orders o ON c.c_id = o.o_cust_id WHERE o.o_total > 4000",
    "SELECT n.n_name, COUNT(*) FROM nations n JOIN customers c ON n.n_id = c.c_nation_id GROUP BY n.n_name",
    "SELECT c.c_name, p.u_tier FROM customers c JOIN profiles p ON c.c_id = p.u_cust_id WHERE c.c_balance > 8000",
    "SELECT p.p_name, SUM(l.l_qty) FROM parts p JOIN lineitems l ON p.p_id = l.l_part_id GROUP BY p.p_name ORDER BY 2 DESC LIMIT 5",
    # multi-source joins (3+)
    "SELECT r.r_name, COUNT(*) AS n FROM regions r JOIN nations n ON r.r_id = n.n_region_id "
    "JOIN customers c ON n.n_id = c.c_nation_id GROUP BY r.r_name ORDER BY n DESC",
    "SELECT c.c_segment, SUM(l.l_price * l.l_qty) AS rev FROM customers c "
    "JOIN orders o ON c.c_id = o.o_cust_id JOIN lineitems l ON o.o_id = l.l_order_id "
    "GROUP BY c.c_segment",
    "SELECT s.s_name, p.p_name FROM suppliers s JOIN lineitems l ON s.s_id = l.l_supplier_id "
    "JOIN parts p ON p.p_id = l.l_part_id WHERE s.s_rating >= 4 AND p.p_price > 700",
    # semi/anti joins
    "SELECT c_name FROM customers WHERE c_id IN (SELECT o_cust_id FROM orders WHERE o_total > 4500)",
    "SELECT p_name FROM parts WHERE p_id NOT IN (SELECT l_part_id FROM lineitems)",
    "SELECT c_name FROM customers WHERE EXISTS (SELECT 1 FROM orders WHERE o_total > 4990)",
    # left joins
    "SELECT c.c_name, o.o_id FROM customers c LEFT JOIN orders o "
    "ON c.c_id = o.o_cust_id AND o.o_total > 4900 WHERE c.c_id <= 20",
    # aggregation variants
    "SELECT COUNT(DISTINCT o_cust_id) FROM orders",
    "SELECT o_cust_id, MIN(o_date), MAX(o_date) FROM orders GROUP BY o_cust_id HAVING COUNT(*) >= 5",
    "SELECT AVG(c_balance), SUM(c_balance) FROM customers WHERE c_segment = 'HOUSEHOLD'",
    # expressions
    "SELECT o_id, CASE WHEN o_total > 1000 THEN 'big' ELSE 'small' END AS bucket FROM orders LIMIT 10",
    "SELECT UPPER(c_name) FROM customers WHERE LENGTH(c_name) > 12 LIMIT 5",
    "SELECT CAST(o_total AS INTEGER) FROM orders WHERE o_id <= 5",
    "SELECT YEAR(o_date), COUNT(*) FROM orders GROUP BY YEAR(o_date) ORDER BY 1",
    # set operations
    "SELECT c_nation_id FROM customers UNION SELECT s_nation_id FROM suppliers",
    "SELECT n_id FROM nations EXCEPT SELECT c_nation_id FROM customers",
    "SELECT c_nation_id FROM customers INTERSECT SELECT s_nation_id FROM suppliers",
    # distinct / order / limit interplay
    "SELECT DISTINCT c_segment FROM customers ORDER BY c_segment",
    "SELECT o_id, o_total FROM orders ORDER BY o_total DESC, o_id LIMIT 7 OFFSET 3",
    # derived tables
    "SELECT bucket, COUNT(*) FROM (SELECT CASE WHEN o_total > 2500 THEN 'hi' ELSE 'lo' END AS bucket FROM orders) q GROUP BY bucket",
    "SELECT MAX(n) FROM (SELECT o_cust_id, COUNT(*) AS n FROM orders GROUP BY o_cust_id) q",
    # window functions at the mediator over federated inputs
    "SELECT o_id, ROW_NUMBER() OVER (PARTITION BY o_status ORDER BY o_total DESC) FROM orders WHERE o_total > 4000",
    "SELECT c.c_name, o.o_total, RANK() OVER (ORDER BY o.o_total DESC) FROM customers c JOIN orders o ON c.c_id = o.o_cust_id WHERE o.o_total > 4700",
    # bag-semantics set operations
    "SELECT c_nation_id FROM customers EXCEPT ALL SELECT s_nation_id FROM suppliers",
    "SELECT c_nation_id FROM customers INTERSECT ALL SELECT s_nation_id FROM suppliers",
    # correlated subqueries
    "SELECT c_name FROM customers c WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_cust_id = c.c_id AND o.o_total > 4900)",
    "SELECT c_name FROM customers c WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_cust_id = c.c_id)",
]


@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
def test_engine_matches_reference(federation, sql):
    result = federation.gis.query(sql)
    names, reference = reference_query(federation.gis, sql)
    assert result.column_names == names
    if "ORDER BY" in sql:
        # Ordered queries must agree on prefix order of the sort keys; we
        # still compare as multisets because ties are nondeterministic.
        assert_same_rows(result.rows, reference)
    else:
        assert_same_rows(result.rows, reference)


@pytest.mark.parametrize(
    "options_name,options",
    [
        ("naive", PlannerOptions(rewrites=False, join_strategy="canonical",
                                 pushdown="scans-only", semijoin="off")),
        ("greedy-nostats", PlannerOptions(join_strategy="greedy",
                                          use_histograms=False)),
        ("semijoin-forced", PlannerOptions(semijoin="force")),
        ("no-rewrites", PlannerOptions(rewrites=False)),
        ("canonical-order", PlannerOptions(join_strategy="canonical")),
        ("no-partial-agg", PlannerOptions(partial_aggregation=False)),
    ],
)
@pytest.mark.parametrize("sql", QUERIES[::3], ids=lambda s: s[:30])
def test_option_matrix_agrees(federation, options_name, options, sql):
    baseline = federation.gis.query(sql)
    variant = federation.gis.query(sql, options)
    assert_same_rows(variant.rows, baseline.rows)


class TestMetricsInvariants:
    def test_pushdown_never_ships_more(self, federation):
        sql = "SELECT o_id FROM orders WHERE o_total > 4000"
        smart = federation.gis.query(sql)
        naive = federation.gis.query(
            sql, PlannerOptions(pushdown="scans-only")
        )
        assert smart.metrics.rows_shipped <= naive.metrics.rows_shipped
        assert smart.metrics.bytes_shipped < naive.metrics.bytes_shipped

    def test_network_ledger_matches_result_metrics(self, federation):
        network = federation.gis.network
        before = network.total.bytes
        result = federation.gis.query("SELECT COUNT(*) FROM customers")
        delta = network.total.bytes - before
        assert delta == pytest.approx(result.metrics.bytes_shipped)

    def test_projection_pruning_cuts_bytes(self, federation):
        wide = federation.gis.query("SELECT * FROM customers")
        narrow = federation.gis.query("SELECT c_id FROM customers")
        assert narrow.metrics.bytes_shipped < wide.metrics.bytes_shipped

    def test_limit_pushdown_cuts_rows(self, federation):
        unlimited = federation.gis.query("SELECT o_id FROM orders")
        limited = federation.gis.query("SELECT o_id FROM orders LIMIT 3")
        assert limited.metrics.rows_shipped < unlimited.metrics.rows_shipped


class TestPartitionedFederation:
    def test_union_view_scaleout(self):
        from repro.workloads import build_partitioned_orders

        whole = build_partitioned_orders(1, 400, seed=11)
        split = build_partitioned_orders(4, 100, seed=11)
        sql = "SELECT COUNT(*), SUM(o_total) FROM orders_all WHERE o_total > 500"
        rows_whole = whole.gis.query(sql).rows
        rows_split = split.gis.query(sql).rows
        assert rows_whole[0][0] == rows_split[0][0]
        assert rows_whole[0][1] == pytest.approx(rows_split[0][1])

    def test_parallel_elapsed_less_than_sequential(self):
        from repro.workloads import build_partitioned_orders

        federation = build_partitioned_orders(4, 200)
        federation.gis.network.reset()
        federation.gis.query("SELECT COUNT(*) FROM orders_all")
        network = federation.gis.network
        assert network.parallel_elapsed_ms() < network.total.simulated_ms


NOT_IN_QUERIES = [
    # keyless: the operand references no outer column
    "SELECT name FROM customers WHERE 7 NOT IN "
    "(SELECT CASE WHEN oid > 103 THEN NULL ELSE cust_id END FROM orders)",
    "SELECT name FROM customers WHERE 7 NOT IN (SELECT cust_id FROM orders)",
    "SELECT name FROM customers WHERE 1 NOT IN (SELECT cust_id FROM orders)",
    # a NULL operand, against a non-empty and an empty subquery
    "SELECT name FROM customers WHERE NULL NOT IN (SELECT cust_id FROM orders)",
    "SELECT name FROM customers WHERE NULL NOT IN "
    "(SELECT cust_id FROM orders WHERE oid > 1000)",
    "SELECT name FROM customers WHERE 7 NOT IN "
    "(SELECT cust_id FROM orders WHERE oid > 1000)",
    # keyed: the same subqueries with the operand tied to a column
    "SELECT name FROM customers WHERE id * 0 + 7 NOT IN "
    "(SELECT CASE WHEN oid > 103 THEN NULL ELSE cust_id END FROM orders)",
    "SELECT name FROM customers WHERE id NOT IN (SELECT cust_id FROM orders)",
    "SELECT name FROM customers WHERE region NOT IN (SELECT status FROM orders)",
]


@pytest.mark.parametrize("sql", NOT_IN_QUERIES)
def test_not_in_matches_sqlite3(sql):
    """NOT IN keeps a row only if every comparison is FALSE, keyed or not;
    stdlib sqlite3 shares no code with the engine or its reference."""
    import sqlite3

    from .conftest import CUSTOMERS, ORDERS, make_small_gis

    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE customers (id, name, region, since, balance)")
    oracle.execute("CREATE TABLE orders (oid, cust_id, total, odate, status)")
    oracle.executemany("INSERT INTO customers VALUES (?, ?, ?, ?, ?)", CUSTOMERS)
    oracle.executemany("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", ORDERS)
    expected = sorted(oracle.execute(sql).fetchall())
    gis = make_small_gis()
    assert sorted(gis.query(sql).rows) == expected
    assert sorted(reference_query(gis, sql)[1]) == expected
