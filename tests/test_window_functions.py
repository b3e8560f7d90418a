"""Window functions: ranking, partition aggregates, and misuse errors."""

import pytest

from repro.core.logical import WindowOp
from repro.errors import BindError

from .conftest import ORDERS, assert_same_rows, make_small_gis
from .reference import reference_query


@pytest.fixture(scope="module")
def gis():
    return make_small_gis()


def by_oid(rows):
    return sorted(rows)


class TestRowNumber:
    def test_partitioned_row_number(self, gis):
        result = gis.query(
            "SELECT oid, ROW_NUMBER() OVER "
            "(PARTITION BY cust_id ORDER BY total DESC) AS rn "
            "FROM orders ORDER BY oid"
        )
        expected = {}
        for cust in {row[1] for row in ORDERS}:
            ordered = sorted(
                (r for r in ORDERS if r[1] == cust),
                key=lambda r: -r[2],
            )
            for position, row in enumerate(ordered, start=1):
                expected[row[0]] = position
        assert result.rows == [(oid, expected[oid]) for oid, _ in result.rows]
        assert {oid for oid, _ in result.rows} == {r[0] for r in ORDERS}

    def test_global_row_number_is_permutation(self, gis):
        result = gis.query(
            "SELECT ROW_NUMBER() OVER (ORDER BY total) FROM orders"
        )
        assert sorted(r[0] for r in result.rows) == list(
            range(1, len(ORDERS) + 1)
        )

    def test_row_number_ordering_with_ties_is_dense_permutation(self, gis):
        result = gis.query(
            "SELECT ROW_NUMBER() OVER (ORDER BY status) FROM orders"
        )
        assert sorted(r[0] for r in result.rows) == list(
            range(1, len(ORDERS) + 1)
        )


class TestRanking:
    def test_rank_with_gaps(self, gis):
        result = gis.query(
            "SELECT status, RANK() OVER (ORDER BY status) AS rk "
            "FROM orders ORDER BY status, rk"
        )
        # statuses: OPEN x4, RETURNED x1, SHIPPED x2 (alphabetical order)
        ranks = [row[1] for row in result.rows]
        assert ranks == [1, 1, 1, 1, 5, 6, 6]

    def test_dense_rank_no_gaps(self, gis):
        result = gis.query(
            "SELECT status, DENSE_RANK() OVER (ORDER BY status) AS dr "
            "FROM orders ORDER BY status, dr"
        )
        assert [row[1] for row in result.rows] == [1, 1, 1, 1, 2, 3, 3]


class TestPartitionAggregates:
    def test_sum_over_partition(self, gis):
        result = gis.query(
            "SELECT oid, SUM(total) OVER (PARTITION BY cust_id) FROM orders"
        )
        totals = {}
        for row in ORDERS:
            totals[row[1]] = totals.get(row[1], 0.0) + row[2]
        by_order = {row[0]: totals[row[1]] for row in ORDERS}
        for oid, value in result.rows:
            assert value == pytest.approx(by_order[oid])

    def test_count_star_over_empty_partition_clause(self, gis):
        result = gis.query("SELECT COUNT(*) OVER () FROM orders LIMIT 1")
        assert result.rows == [(len(ORDERS),)]

    def test_avg_and_share_expression(self, gis):
        result = gis.query(
            "SELECT oid, total / SUM(total) OVER () AS share FROM orders"
        )
        grand_total = sum(row[2] for row in ORDERS)
        shares = {row[0]: row[2] / grand_total for row in ORDERS}
        for oid, share in result.rows:
            assert share == pytest.approx(shares[oid])

    def test_window_in_order_by(self, gis):
        result = gis.query(
            "SELECT oid FROM orders "
            "ORDER BY RANK() OVER (ORDER BY total DESC), oid"
        )
        expected = [r[0] for r in sorted(ORDERS, key=lambda r: (-r[2], r[0]))]
        assert [row[0] for row in result.rows] == expected


class TestReferenceAgreement:
    QUERIES = [
        "SELECT oid, ROW_NUMBER() OVER (PARTITION BY status ORDER BY total) FROM orders",
        "SELECT oid, MIN(total) OVER (PARTITION BY cust_id), MAX(total) OVER () FROM orders",
        "SELECT cust_id, DENSE_RANK() OVER (ORDER BY cust_id DESC) FROM orders WHERE total > 50",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_engine_matches_reference(self, gis, sql):
        result = gis.query(sql)
        _, reference = reference_query(gis, sql)
        assert_same_rows(result.rows, reference)


class TestPlanShape:
    def test_window_op_in_plan(self, gis):
        planned = gis.plan(
            "SELECT oid, ROW_NUMBER() OVER (ORDER BY total) FROM orders"
        )
        assert any(
            isinstance(n, WindowOp) for n in planned.distributed.walk()
        )
        assert "Window(" in planned.physical.explain()

    def test_duplicate_windows_share_one_spec(self, gis):
        planned = gis.plan(
            "SELECT RANK() OVER (ORDER BY total), "
            "RANK() OVER (ORDER BY total) + 1 FROM orders"
        )
        windows = [
            n for n in planned.distributed.walk() if isinstance(n, WindowOp)
        ]
        assert len(windows) == 1 and len(windows[0].specs) == 1

    def test_filter_still_pushed_below_window(self, gis):
        planned = gis.plan(
            "SELECT oid, ROW_NUMBER() OVER (ORDER BY total) FROM orders "
            "WHERE total > 100"
        )
        from repro.core.logical import RemoteQueryOp, FilterOp

        remotes = [
            n for n in planned.distributed.walk() if isinstance(n, RemoteQueryOp)
        ]
        assert remotes and any(
            isinstance(f, FilterOp) for f in remotes[0].fragment.walk()
        )


class TestErrors:
    def test_window_in_where_rejected(self, gis):
        with pytest.raises(BindError, match="select list"):
            gis.query(
                "SELECT oid FROM orders "
                "WHERE ROW_NUMBER() OVER (ORDER BY total) = 1"
            )

    def test_window_with_group_by_rejected(self, gis):
        with pytest.raises(BindError):
            gis.query(
                "SELECT cust_id, COUNT(*) OVER () FROM orders GROUP BY cust_id"
            )

    def test_ranking_requires_order(self, gis):
        with pytest.raises(BindError, match="ORDER BY"):
            gis.query("SELECT RANK() OVER () FROM orders")

    def test_ranking_takes_no_args(self, gis):
        with pytest.raises(BindError):
            gis.query("SELECT ROW_NUMBER(total) OVER (ORDER BY oid) FROM orders")

    def test_unknown_window_function(self, gis):
        with pytest.raises(BindError, match="unknown window function"):
            gis.query("SELECT NTILE(4) OVER (ORDER BY oid) FROM orders")

    def test_distinct_in_window_rejected_by_parser(self, gis):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            gis.query("SELECT SUM(DISTINCT total) OVER () FROM orders")
