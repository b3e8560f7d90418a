"""Partial (local/global) aggregation through UNION ALL."""

import pytest

from repro import PlannerOptions
from repro.core.logical import AggregateOp, RemoteQueryOp, UnionOp
from repro.workloads import build_partitioned_orders

from .conftest import assert_same_rows
from .reference import reference_query


@pytest.fixture(scope="module")
def federation():
    return build_partitioned_orders(4, 150, seed=3)


QUERIES = [
    "SELECT COUNT(*) FROM orders_all",
    "SELECT o_status, COUNT(*) FROM orders_all GROUP BY o_status",
    "SELECT o_status, SUM(o_total), MIN(o_total), MAX(o_total) FROM orders_all GROUP BY o_status",
    "SELECT o_status, AVG(o_total) FROM orders_all GROUP BY o_status",
    "SELECT COUNT(o_date), AVG(o_total) FROM orders_all WHERE o_total > 1000",
    "SELECT o_cust_id, COUNT(*) FROM orders_all GROUP BY o_cust_id HAVING COUNT(*) > 3",
    "SELECT YEAR(o_date), SUM(o_total) FROM orders_all GROUP BY YEAR(o_date)",
]


def remote_aggregates(plan):
    """Remote fragments that contain an aggregate (i.e. pushed partials)."""
    count = 0
    for node in plan.walk():
        if isinstance(node, RemoteQueryOp):
            if any(isinstance(f, AggregateOp) for f in node.fragment.walk()):
                count += 1
    return count


class TestCorrectness:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, federation, sql):
        result = federation.gis.query(sql)
        _, reference = reference_query(federation.gis, sql)
        assert_same_rows(result.rows, reference)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_undecomposed(self, federation, sql):
        decomposed = federation.gis.query(sql)
        plain = federation.gis.query(
            sql, PlannerOptions(partial_aggregation=False)
        )
        assert_same_rows(decomposed.rows, plain.rows)

    def test_empty_branches_global_aggregate(self, federation):
        result = federation.gis.query(
            "SELECT COUNT(*), SUM(o_total), AVG(o_total) FROM orders_all "
            "WHERE o_total > 99999"
        )
        assert result.rows == [(0, None, None)]

    def test_avg_all_null_groups(self, federation):
        # AVG over an empty selection inside each branch must stay NULL,
        # not 0 (SUM/COUNT division must not fabricate values).
        result = federation.gis.query(
            "SELECT AVG(o_total) FROM orders_all WHERE o_status = 'NOPE'"
        )
        assert result.scalar() is None


class TestPlanShape:
    def test_partials_pushed_to_every_partition(self, federation):
        planned = federation.gis.plan(
            "SELECT o_status, COUNT(*) FROM orders_all GROUP BY o_status"
        )
        assert remote_aggregates(planned.distributed) == 4

    def test_disabled_by_option(self, federation):
        planned = federation.gis.plan(
            "SELECT o_status, COUNT(*) FROM orders_all GROUP BY o_status",
            PlannerOptions(partial_aggregation=False),
        )
        assert remote_aggregates(planned.distributed) == 0

    def test_distinct_aggregate_not_decomposed(self, federation):
        planned = federation.gis.plan(
            "SELECT COUNT(DISTINCT o_cust_id) FROM orders_all"
        )
        assert remote_aggregates(planned.distributed) == 0
        # ... and still correct.
        result = federation.gis.query(
            "SELECT COUNT(DISTINCT o_cust_id) FROM orders_all"
        )
        _, reference = reference_query(
            federation.gis, "SELECT COUNT(DISTINCT o_cust_id) FROM orders_all"
        )
        assert result.rows == reference

    def test_ships_one_row_per_branch_group(self, federation):
        federation.gis.network.reset()
        result = federation.gis.query(
            "SELECT o_status, COUNT(*) FROM orders_all GROUP BY o_status"
        )
        # 4 partitions × ≤4 statuses, not 600 raw rows.
        assert result.metrics.rows_shipped <= 16

    def test_union_flattening_covers_all_branches(self, federation):
        planned = federation.gis.plan("SELECT COUNT(*) FROM orders_all")
        unions = [
            n for n in planned.distributed.walk() if isinstance(n, UnionOp)
        ]
        assert unions and len(unions[0].inputs) == 4
