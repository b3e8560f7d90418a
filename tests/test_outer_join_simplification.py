"""LEFT → INNER simplification under null-rejecting WHERE conjuncts."""

import pytest

from repro.core.logical import FilterOp, JoinOp, RemoteQueryOp

from .conftest import assert_same_rows, make_small_gis
from .reference import reference_query


def join_kinds(plan):
    return [n.kind for n in plan.walk() if isinstance(n, JoinOp)]


@pytest.fixture
def gis():
    return make_small_gis()


class TestConversion:
    @pytest.mark.parametrize(
        "where",
        [
            "o.total > 100",
            "o.total = 250",
            "o.total BETWEEN 50 AND 600",
            "o.status LIKE 'OPE%'",
            "o.status IN ('OPEN', 'SHIPPED')",
            "o.total > 100 AND c.region = 'EU'",
            "UPPER(o.status) = 'OPEN'",
        ],
    )
    def test_null_rejecting_filters_convert(self, gis, where):
        sql = (
            "SELECT c.name FROM customers c "
            f"LEFT JOIN orders o ON c.id = o.cust_id WHERE {where}"
        )
        planned = gis.plan(sql)
        assert join_kinds(planned.distributed) == ["INNER"]
        result = gis.query(sql)
        _, reference = reference_query(gis, sql)
        assert_same_rows(result.rows, reference)

    @pytest.mark.parametrize(
        "where",
        [
            "o.total IS NULL",                       # the anti-join idiom
            "o.total IS NULL OR o.total > 100",      # can be TRUE on NULL
            "COALESCE(o.status, 'none') = 'none'",   # NULL-aware function
            "c.region = 'EU'",                       # left-side only
        ],
    )
    def test_null_tolerant_filters_keep_left_join(self, gis, where):
        sql = (
            "SELECT c.name FROM customers c "
            f"LEFT JOIN orders o ON c.id = o.cust_id WHERE {where}"
        )
        planned = gis.plan(sql)
        assert "LEFT" in join_kinds(planned.distributed)
        result = gis.query(sql)
        _, reference = reference_query(gis, sql)
        assert_same_rows(result.rows, reference)

    def test_converted_filter_reaches_the_source(self, gis):
        planned = gis.plan(
            "SELECT c.name FROM customers c "
            "LEFT JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
        )
        remotes = [
            n for n in planned.distributed.walk() if isinstance(n, RemoteQueryOp)
        ]
        erp = [r for r in remotes if r.source_name == "erp"][0]
        assert any(isinstance(n, FilterOp) for n in erp.fragment.walk())

    def test_is_not_null_converts(self, gis):
        sql = (
            "SELECT c.name FROM customers c "
            "LEFT JOIN orders o ON c.id = o.cust_id WHERE o.status IS NOT NULL"
        )
        planned = gis.plan(sql)
        assert join_kinds(planned.distributed) == ["INNER"]
        result = gis.query(sql)
        _, reference = reference_query(gis, sql)
        assert_same_rows(result.rows, reference)

    def test_anti_join_idiom_results(self, gis):
        # Customers with no orders: the LEFT JOIN ... IS NULL pattern.
        result = gis.query(
            "SELECT c.name FROM customers c "
            "LEFT JOIN orders o ON c.id = o.cust_id WHERE o.oid IS NULL"
        )
        assert result.rows == [("Eve",)]
