"""Top-N (ORDER BY + LIMIT) pushdown into UNION ALL branches."""

import pytest

from repro import PlannerOptions
from repro.core.logical import LimitOp, RemoteQueryOp, SortOp
from repro.workloads import build_partitioned_orders

from .conftest import assert_same_rows
from .reference import reference_query


@pytest.fixture(scope="module")
def federation():
    return build_partitioned_orders(4, 300, seed=13)


def remote_top_ns(plan):
    count = 0
    for node in plan.walk():
        if isinstance(node, RemoteQueryOp):
            kinds = {type(n) for n in node.fragment.walk()}
            if LimitOp in kinds and SortOp in kinds:
                count += 1
    return count


class TestPlanShape:
    def test_top_n_pushed_to_all_branches(self, federation):
        planned = federation.gis.plan(
            "SELECT o_id, o_total FROM orders_all ORDER BY o_total DESC LIMIT 5"
        )
        assert remote_top_ns(planned.distributed) == 4

    def test_offset_widens_branch_budget(self, federation):
        planned = federation.gis.plan(
            "SELECT o_id FROM orders_all ORDER BY o_total LIMIT 3 OFFSET 7"
        )
        budgets = [
            node.limit
            for remote in planned.distributed.walk()
            if isinstance(remote, RemoteQueryOp)
            for node in remote.fragment.walk()
            if isinstance(node, LimitOp)
        ]
        assert budgets and all(b == 10 for b in budgets)

    def test_outer_sort_and_limit_survive(self, federation):
        planned = federation.gis.plan(
            "SELECT o_id FROM orders_all ORDER BY o_total LIMIT 5"
        )
        plan = planned.distributed
        # RemoteQueryOp hides its fragment from walk(), so every Sort/Limit
        # seen here executes at the mediator — and a final top-N must.
        mediator_kinds = {type(n) for n in plan.walk()}
        assert LimitOp in mediator_kinds and SortOp in mediator_kinds

    def test_rewrites_disabled_means_no_push(self, federation):
        planned = federation.gis.plan(
            "SELECT o_id FROM orders_all ORDER BY o_total LIMIT 5",
            PlannerOptions(rewrites=False),
        )
        assert remote_top_ns(planned.distributed) == 0


class TestCorrectness:
    QUERIES = [
        "SELECT o_id, o_total FROM orders_all ORDER BY o_total DESC LIMIT 5",
        "SELECT o_id FROM orders_all ORDER BY o_total LIMIT 1",
        "SELECT o_id, o_date FROM orders_all ORDER BY o_date DESC, o_id LIMIT 10",
        "SELECT o_id FROM orders_all ORDER BY o_total LIMIT 4 OFFSET 6",
        "SELECT o_id FROM orders_all WHERE o_status = 'OPEN' "
        "ORDER BY o_total DESC LIMIT 7",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, federation, sql):
        result = federation.gis.query(sql)
        _, reference = reference_query(federation.gis, sql)
        # Ties may legitimately reorder; compare the sort-key multiset and
        # row multiset.
        assert_same_rows(result.rows, reference)

    def test_ships_at_most_budget_per_branch(self, federation):
        federation.gis.network.reset()
        result = federation.gis.query(
            "SELECT o_id, o_total FROM orders_all ORDER BY o_total DESC LIMIT 5"
        )
        assert result.metrics.rows_shipped <= 4 * 5

    def test_limit_exceeding_partition_size(self, federation):
        result = federation.gis.query(
            "SELECT o_id FROM orders_all ORDER BY o_id LIMIT 5000"
        )
        assert len(result.rows) == 1200
