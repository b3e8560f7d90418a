"""The reference interpreter: node-by-node semantics on a fixed catalog.

These tests pin down *semantics* (what SQL should return); the optimized
engine is then differential-tested against this interpreter elsewhere.
"""

import pytest

from repro import Catalog, MemorySource, TableMapping
from repro.catalog.schema import schema_from_pairs
from repro.core.analyzer import Analyzer
from repro.core.fragments import equi_join_keys
from repro.core.logical import ScanOp
from repro.sql.parser import parse_select

from .reference import interpret_plan

PEOPLE = [
    (1, "Ann", "EU", 10.0),
    (2, "Bob", "US", None),
    (3, "Cy", "EU", 30.0),
    (4, "Dee", None, 5.0),
]
PETS = [
    (1, 1, "cat"),
    (2, 1, "dog"),
    (3, 3, "cat"),
    (4, 9, "fox"),  # dangling owner
    (5, None, "eel"),  # null owner
]


@pytest.fixture
def catalog():
    catalog = Catalog()
    source = MemorySource("mem")
    people_schema = schema_from_pairs(
        "people", [("id", "INT"), ("name", "TEXT"), ("region", "TEXT"), ("score", "FLOAT")]
    )
    pets_schema = schema_from_pairs(
        "pets", [("pid", "INT"), ("owner", "INT"), ("kind", "TEXT")]
    )
    source.add_table("people", people_schema, PEOPLE)
    source.add_table("pets", pets_schema, PETS)
    catalog.register_source("mem", source)
    catalog.register_table("people", people_schema, TableMapping("mem", "people"))
    catalog.register_table("pets", pets_schema, TableMapping("mem", "pets"))
    return catalog


def run(catalog, sql):
    plan = Analyzer(catalog).bind_statement(parse_select(sql))
    source = catalog.source("mem")

    def provide(scan: ScanOp):
        return source.scan(scan.table.mapping.remote_table)

    return list(interpret_plan(plan, provide))


class TestScanFilterProject:
    def test_plain_scan(self, catalog):
        assert len(run(catalog, "SELECT * FROM people")) == 4

    def test_filter(self, catalog):
        rows = run(catalog, "SELECT name FROM people WHERE region = 'EU'")
        assert sorted(rows) == [("Ann",), ("Cy",)]

    def test_null_region_excluded_by_any_comparison(self, catalog):
        rows = run(catalog, "SELECT name FROM people WHERE region <> 'EU'")
        assert rows == [("Bob",)]  # Dee's NULL region never matches

    def test_computed_projection(self, catalog):
        rows = run(catalog, "SELECT score * 2 FROM people WHERE id = 1")
        assert rows == [(20.0,)]

    def test_null_arithmetic_projection(self, catalog):
        rows = run(catalog, "SELECT score + 1 FROM people WHERE id = 2")
        assert rows == [(None,)]


class TestJoins:
    def test_inner_join(self, catalog):
        rows = run(
            catalog,
            "SELECT p.name, q.kind FROM people p JOIN pets q ON p.id = q.owner",
        )
        assert sorted(rows) == [("Ann", "cat"), ("Ann", "dog"), ("Cy", "cat")]

    def test_left_join_null_extension(self, catalog):
        rows = run(
            catalog,
            "SELECT p.name, q.kind FROM people p LEFT JOIN pets q ON p.id = q.owner",
        )
        assert ("Bob", None) in rows and ("Dee", None) in rows
        assert len(rows) == 5

    def test_cross_join_count(self, catalog):
        rows = run(catalog, "SELECT 1 FROM people CROSS JOIN pets")
        assert len(rows) == 20

    def test_non_equi_join(self, catalog):
        rows = run(
            catalog,
            "SELECT p.name FROM people p JOIN pets q ON p.id < q.owner",
        )
        expected = sum(
            1
            for person in PEOPLE
            for pet in PETS
            if pet[1] is not None and person[0] < pet[1]
        )
        assert len(rows) == expected

    def test_semi_join_via_in(self, catalog):
        rows = run(
            catalog, "SELECT name FROM people WHERE id IN (SELECT owner FROM pets)"
        )
        assert sorted(rows) == [("Ann",), ("Cy",)]

    def test_not_in_with_null_right_is_empty(self, catalog):
        rows = run(
            catalog,
            "SELECT name FROM people WHERE id NOT IN (SELECT owner FROM pets)",
        )
        assert rows == []  # pets.owner contains NULL → NOT IN yields nothing

    def test_not_in_without_nulls(self, catalog):
        rows = run(
            catalog,
            "SELECT name FROM people WHERE id NOT IN "
            "(SELECT owner FROM pets WHERE owner IS NOT NULL)",
        )
        assert sorted(rows) == [("Bob",), ("Dee",)]

    def test_exists(self, catalog):
        rows = run(
            catalog, "SELECT name FROM people WHERE EXISTS (SELECT 1 FROM pets)"
        )
        assert len(rows) == 4

    def test_not_exists_empty_subquery(self, catalog):
        rows = run(
            catalog,
            "SELECT name FROM people WHERE NOT EXISTS "
            "(SELECT 1 FROM pets WHERE kind = 'dragon')",
        )
        assert len(rows) == 4


class TestAggregation:
    def test_group_by_with_having(self, catalog):
        rows = run(
            catalog,
            "SELECT owner, COUNT(*) AS n FROM pets GROUP BY owner HAVING COUNT(*) > 1",
        )
        assert rows == [(1, 2)]

    def test_global_aggregate_on_empty_input(self, catalog):
        rows = run(catalog, "SELECT COUNT(*), SUM(score) FROM people WHERE id > 99")
        assert rows == [(0, None)]

    def test_group_on_empty_input_yields_no_rows(self, catalog):
        rows = run(
            catalog,
            "SELECT region, COUNT(*) FROM people WHERE id > 99 GROUP BY region",
        )
        assert rows == []

    def test_null_group_key_forms_a_group(self, catalog):
        rows = run(catalog, "SELECT region, COUNT(*) FROM people GROUP BY region")
        assert (None, 1) in rows

    def test_avg_skips_nulls(self, catalog):
        rows = run(catalog, "SELECT AVG(score) FROM people")
        assert rows == [(15.0,)]


class TestSortLimitDistinct:
    def test_order_by_desc_with_nulls(self, catalog):
        rows = run(catalog, "SELECT score FROM people ORDER BY score DESC")
        assert rows == [(None,), (30.0,), (10.0,), (5.0,)]

    def test_order_by_asc_nulls_last(self, catalog):
        rows = run(catalog, "SELECT score FROM people ORDER BY score")
        assert rows == [(5.0,), (10.0,), (30.0,), (None,)]

    def test_limit_offset(self, catalog):
        rows = run(catalog, "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1")
        assert rows == [(2,), (3,)]

    def test_limit_zero(self, catalog):
        assert run(catalog, "SELECT id FROM people LIMIT 0") == []

    def test_distinct(self, catalog):
        rows = run(catalog, "SELECT DISTINCT kind FROM pets WHERE kind = 'cat'")
        assert rows == [("cat",)]

    def test_distinct_keeps_null_row(self, catalog):
        rows = run(catalog, "SELECT DISTINCT region FROM people")
        assert len(rows) == 3


class TestSetOperations:
    def test_union_all_keeps_duplicates(self, catalog):
        rows = run(
            catalog,
            "SELECT kind FROM pets WHERE kind = 'cat' "
            "UNION ALL SELECT kind FROM pets WHERE kind = 'cat'",
        )
        assert len(rows) == 4

    def test_union_dedupes(self, catalog):
        rows = run(
            catalog,
            "SELECT kind FROM pets UNION SELECT kind FROM pets",
        )
        assert sorted(rows) == [("cat",), ("dog",), ("eel",), ("fox",)]

    def test_except(self, catalog):
        rows = run(
            catalog,
            "SELECT kind FROM pets EXCEPT SELECT kind FROM pets WHERE kind = 'cat'",
        )
        assert sorted(rows) == [("dog",), ("eel",), ("fox",)]

    def test_intersect(self, catalog):
        rows = run(
            catalog,
            "SELECT kind FROM pets INTERSECT SELECT kind FROM pets WHERE owner = 1",
        )
        assert sorted(rows) == [("cat",), ("dog",)]


class TestEquiJoinKeyExtraction:
    def test_extracts_keys_and_residual(self, catalog):
        plan = Analyzer(catalog).bind_statement(
            parse_select(
                "SELECT 1 FROM people p JOIN pets q "
                "ON p.id = q.owner AND p.score > 1"
            )
        )
        from repro.core.logical import JoinOp

        (join,) = [n for n in plan.walk() if isinstance(n, JoinOp)]
        keys = equi_join_keys(
            join.condition, join.left.output_columns, join.right.output_columns
        )
        assert keys is not None
        left_keys, right_keys, residual = keys
        assert len(left_keys) == 1 and len(residual) == 1

    def test_no_equi_keys(self, catalog):
        plan = Analyzer(catalog).bind_statement(
            parse_select("SELECT 1 FROM people p JOIN pets q ON p.id < q.owner")
        )
        from repro.core.logical import JoinOp

        (join,) = [n for n in plan.walk() if isinstance(n, JoinOp)]
        assert (
            equi_join_keys(
                join.condition, join.left.output_columns, join.right.output_columns
            )
            is None
        )
