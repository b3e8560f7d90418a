"""In-memory fragments run on the engine's operators, bit-identical to the oracle.

:class:`MemorySource` runs every fragment the planner pushes to it on the
mediator's own page operators and vector kernels. This checks that path
against the reference executor (``tests/reference.py``) on fragments the
source evaluates itself: filters, projections, grouped and ungrouped
aggregates, LIMIT/OFFSET and bare scans, over a table whose global column
order differs from its native one. Per case and page size it compares

* the ordered rows, every value's ``type()`` and every FLOAT's bit pattern;
* the adapter page contract: full pages, then one short final page (an
  empty result is one empty page of the fragment's width);
* the transfer ledger ``gis.query`` reports.
"""

import struct

import pytest

from repro import GlobalInformationSystem, MemorySource
from repro.catalog.schema import Column, TableSchema, schema_from_pairs
from repro.core.fragments import Fragment
from repro.core.logical import RemoteQueryOp
from repro.core.pages import paginate_rows
from repro.core.physical import make_batch_sizer
from repro.datatypes import DataType

from .reference import interpret_plan

PAGE_SIZES = [1, 7, 1024]

#: Native column order: qty, amt, grp, id. The global table reorders and
#: renames them (id, grp_key, amount, qty).
NATIVE = schema_from_pairs(
    "facts_native",
    [("qty", "INT"), ("amt", "FLOAT"), ("grp", "TEXT"), ("id", "INT")],
)
GLOBAL = TableSchema(
    "facts",
    [
        Column("id", DataType.INTEGER),
        Column("grp_key", DataType.TEXT),
        Column("amount", DataType.FLOAT),
        Column("qty", DataType.INTEGER),
    ],
)
COLUMN_MAP = {"grp_key": "grp", "amount": "amt"}

# Irregular float values, so a different summation order changes the
# last bits; NULL group keys and NULL amounts; duplicate keys throughout.
ROWS = [
    (
        i % 4,
        None if i % 9 == 4 else (i * 0.1 + 1.0 / (i + 3)),
        None if i % 7 == 3 else ("abc"[i % 3]),
        i,
    )
    for i in range(47)
]

QUERIES = {
    "bare_scan": "SELECT * FROM facts",
    "filter": "SELECT id, amount FROM facts WHERE amount > 1.5",
    "project": (
        "SELECT id, amount * qty AS x, UPPER(grp_key) AS g FROM facts "
        "WHERE qty >= 2 OR grp_key IS NULL"
    ),
    "grouped": (
        "SELECT grp_key, COUNT(*), COUNT(amount), SUM(amount), AVG(amount), "
        "MIN(qty), MAX(amount) FROM facts GROUP BY grp_key"
    ),
    "grouped_two_keys": (
        "SELECT grp_key, qty, SUM(amount), AVG(amount) FROM facts "
        "GROUP BY grp_key, qty"
    ),
    "ungrouped": "SELECT COUNT(*), SUM(amount), AVG(amount), MAX(id) FROM facts",
    "ungrouped_empty": "SELECT COUNT(*), SUM(amount) FROM facts WHERE id < 0",
    "limit_offset": "SELECT id, grp_key FROM facts LIMIT 5 OFFSET 3",
    "empty": "SELECT id, grp_key FROM facts WHERE id > 1000",
}


class CountingSource(MemorySource):
    """The fault-double pattern: override ``execute``, call ``super()``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def execute(self, fragment):
        self.calls += 1
        return super().execute(fragment)


def build(page_rows, source_class=MemorySource):
    gis = GlobalInformationSystem()
    source = source_class("mem", page_rows=page_rows)
    source.add_table("facts_native", NATIVE, ROWS)
    gis.register_source("mem", source)
    gis.register_table(
        "facts", source="mem", remote_table="facts_native",
        column_map=COLUMN_MAP, schema=GLOBAL,
    )
    return gis, source


def the_fragment(gis, sql):
    """The query's one fragment; the cases are chosen to run at the source."""
    remotes = [
        node for node in gis.plan(sql).distributed.walk()
        if isinstance(node, RemoteQueryOp)
    ]
    assert len(remotes) == 1
    return Fragment(remotes[0].source_name, remotes[0].fragment)


def oracle_rows(gis, fragment):
    return list(
        interpret_plan(fragment.plan, lambda scan: gis._scan_global(scan.table))
    )


def exact(rows):
    """Rows as (type, value) cells with FLOATs as their IEEE-754 bytes."""
    return [
        tuple(
            (type(value), struct.pack("<d", value) if isinstance(value, float) else value)
            for value in row
        )
        for row in rows
    ]


def check_pages(gis, source, fragment, page_rows):
    width = len(fragment.output_columns)
    pages = list(source.execute_pages(fragment, page_rows))
    expected = oracle_rows(gis, fragment)

    assert exact([row for page in pages for row in page]) == exact(expected)
    assert all(page.width == width for page in pages)
    assert [page.num_rows for page in pages[:-1]] == [page_rows] * (len(pages) - 1)
    assert pages[-1].num_rows < page_rows
    assert len(pages) == len(expected) // page_rows + 1
    # The row API yields the same rows.
    assert exact(source.execute(fragment)) == exact(expected)


@pytest.mark.parametrize("page_rows", PAGE_SIZES)
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_fragment_pages_match_the_oracle(case, page_rows):
    gis, source = build(page_rows)
    check_pages(gis, source, the_fragment(gis, QUERIES[case]), page_rows)


@pytest.mark.parametrize("page_rows", PAGE_SIZES)
def test_bare_scan_fragment_matches_the_oracle(page_rows):
    gis, source = build(page_rows)
    (scan,) = the_fragment(gis, QUERIES["bare_scan"]).scans()
    check_pages(gis, source, Fragment("mem", scan), page_rows)


@pytest.mark.parametrize("page_rows", PAGE_SIZES)
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_query_ledger_matches_the_oracle_pages(case, page_rows):
    gis, _ = build(page_rows)
    sql = QUERIES[case]
    fragment = the_fragment(gis, sql)
    expected = oracle_rows(gis, fragment)
    sizer = make_batch_sizer(fragment.output_columns)
    wire = list(paginate_rows(expected, page_rows, len(fragment.output_columns)))

    network = gis.query(sql).metrics.network
    assert network.rows_shipped == len(expected)
    assert network.messages == len(wire)
    assert network.bytes_shipped == sum(sizer(page) for page in wire)


@pytest.mark.parametrize("page_rows", PAGE_SIZES)
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_execute_override_sees_every_fragment(case, page_rows):
    plain, _ = build(page_rows)
    gis, source = build(page_rows, CountingSource)
    sql = QUERIES[case]
    result = gis.query(sql)
    reference = plain.query(sql)
    assert source.calls == 1
    assert exact(result.rows) == exact(reference.rows)
    assert result.metrics.network.messages == reference.metrics.network.messages
    assert (
        result.metrics.network.bytes_shipped
        == reference.metrics.network.bytes_shipped
    )
