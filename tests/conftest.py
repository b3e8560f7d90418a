"""Shared fixtures: a tiny two-source federation and the TPC-H-lite build."""

from __future__ import annotations

import pytest

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    SQLiteSource,
)
from repro.catalog.schema import schema_from_pairs
from repro.workloads import build_federation

CUSTOMERS = [
    (1, "Alice", "EU", "1987-04-01", 120.5),
    (2, "Bob", "US", "1988-01-15", -20.0),
    (3, "Cara", "EU", "1989-02-06", 300.0),
    (4, "Dan", "APAC", "1986-11-30", 0.0),
    (5, "Eve", None, "1989-06-01", 55.5),
]

ORDERS = [
    (100, 1, 250.0, "1989-01-02", "OPEN"),
    (101, 1, 80.0, "1989-02-10", "SHIPPED"),
    (102, 2, 500.0, "1989-03-05", "OPEN"),
    (103, 3, 20.0, "1989-01-20", "RETURNED"),
    (104, 3, 999.0, "1989-04-01", "SHIPPED"),
    (105, 4, 10.0, "1989-05-12", "OPEN"),
    (106, 9, 75.0, "1989-06-20", "OPEN"),  # dangling customer reference
]


def customers_schema():
    return schema_from_pairs(
        "customers",
        [
            ("id", "INT"),
            ("name", "TEXT"),
            ("region", "TEXT"),
            ("since", "DATE"),
            ("balance", "FLOAT"),
        ],
    )


def orders_schema():
    return schema_from_pairs(
        "orders",
        [
            ("oid", "INT"),
            ("cust_id", "INT"),
            ("total", "FLOAT"),
            ("odate", "DATE"),
            ("status", "TEXT"),
        ],
    )


def make_small_gis() -> GlobalInformationSystem:
    """Memory CRM + SQLite ERP with the fixed rows above."""
    gis = GlobalInformationSystem()
    crm = MemorySource("crm")
    crm.add_table("customers", customers_schema(), CUSTOMERS)
    erp = SQLiteSource("erp")
    erp.load_table("ORDERS", orders_schema(), ORDERS)
    gis.register_source("crm", crm, link=NetworkLink(20.0, 1_000_000.0))
    gis.register_source("erp", erp, link=NetworkLink(30.0, 2_000_000.0))
    gis.register_table("customers", source="crm")
    gis.register_table("orders", source="erp", remote_table="ORDERS")
    gis.analyze()
    return gis


@pytest.fixture
def small_gis() -> GlobalInformationSystem:
    return make_small_gis()


@pytest.fixture(scope="session")
def federation():
    """The standard TPC-H-lite federation (session-scoped; treat read-only)."""
    return build_federation(scale=0.5, seed=7, keep_rows=True)


def drain(op, ctx):
    """An operator's rows in order, flattened from its page stream."""
    return [row for batch in op.iterate_batches(ctx) for row in batch]


def assert_same_rows(actual, expected):
    """Order-insensitive multiset comparison with float tolerance.

    Sorts by repr so rows containing NULLs / mixed types stay comparable.
    """
    assert len(actual) == len(expected), f"{len(actual)} rows != {len(expected)}"
    normalized_actual = sorted(map(_normalize, actual), key=repr)
    normalized_expected = sorted(map(_normalize, expected), key=repr)
    assert normalized_actual == normalized_expected


def _normalize(row):
    return tuple(
        round(value, 6) if isinstance(value, float) else value for value in row
    )
