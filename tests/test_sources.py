"""Source adapters: loading, scanning, fragment execution, autonomy checks."""

import datetime
import os

import pytest

from repro import (
    Catalog,
    CsvSource,
    KeyValueSource,
    MemorySource,
    RestSource,
    SourceCapabilities,
    SQLiteSource,
    TableMapping,
)
from repro.catalog.schema import schema_from_pairs
from repro.core.analyzer import Analyzer
from repro.core.fragments import Fragment
from repro.core.logical import FilterOp, LimitOp, ScanOp
from repro.errors import (
    CapabilityError,
    DuplicateObjectError,
    SourceError,
)
from repro.sql.parser import parse_select

SCHEMA = schema_from_pairs(
    "items",
    [("id", "INT"), ("name", "TEXT"), ("price", "FLOAT"), ("added", "DATE"),
     ("active", "BOOLEAN")],
)
ROWS = [
    (1, "anvil", 10.5, "1989-01-01", True),
    (2, "bolt", 0.2, "1989-02-01", False),
    (3, "crate", 5.0, "1989-03-01", True),
    (4, "drill", 99.9, None, True),
]


def catalog_for(adapter, source_name, remote="items", column_map=None):
    catalog = Catalog()
    catalog.register_source(source_name, adapter)
    catalog.register_table(
        "items", SCHEMA, TableMapping(source_name, remote, column_map or {})
    )
    return catalog


def scan_fragment(catalog, source_name):
    plan = Analyzer(catalog).bind_statement(parse_select("SELECT * FROM items"))
    scan = [n for n in plan.walk() if isinstance(n, ScanOp)][0]
    return Fragment(source_name, scan)


def filter_fragment(catalog, source_name, sql):
    from repro.core.rewriter import rewrite

    plan = rewrite(Analyzer(catalog).bind_statement(parse_select(sql)))
    # Find the deepest Filter(Scan) subtree.
    for node in plan.walk():
        if isinstance(node, FilterOp) and isinstance(node.child, ScanOp):
            return Fragment(source_name, node)
    raise AssertionError("no Filter(Scan) in plan")


class TestMemorySource:
    def test_add_and_scan_with_coercion(self):
        source = MemorySource("m")
        source.add_table("items", SCHEMA, ROWS)
        rows = list(source.scan("items"))
        assert rows[0][3] == datetime.date(1989, 1, 1)
        assert rows[0][4] is True
        assert source.row_count("items") == 4

    def test_row_arity_checked(self):
        source = MemorySource("m")
        with pytest.raises(SourceError):
            source.add_table("items", SCHEMA, [(1, "x")])

    def test_duplicate_table_rejected(self):
        source = MemorySource("m")
        source.add_table("items", SCHEMA, [])
        with pytest.raises(DuplicateObjectError):
            source.add_table("items", SCHEMA, [])

    def test_extend_table(self):
        source = MemorySource("m")
        source.add_table("items", SCHEMA, ROWS[:2])
        source.extend_table("items", ROWS[2:])
        assert source.row_count("items") == 4

    def test_executes_filter_fragment(self):
        source = MemorySource("m")
        source.add_table("items", SCHEMA, ROWS)
        catalog = catalog_for(source, "m")
        fragment = filter_fragment(
            catalog, "m", "SELECT * FROM items WHERE price > 1.0"
        )
        rows = list(source.execute(fragment))
        assert len(rows) == 3

    def test_join_fragment_rejected(self):
        source = MemorySource("m")
        source.add_table("items", SCHEMA, ROWS)
        catalog = catalog_for(source, "m")
        plan = Analyzer(catalog).bind_statement(
            parse_select("SELECT 1 FROM items a JOIN items b ON a.id = b.id")
        )
        from repro.core.logical import JoinOp

        join = [n for n in plan.walk() if isinstance(n, JoinOp)][0]
        with pytest.raises(CapabilityError):
            list(source.execute(Fragment("m", join)))

    def test_unknown_table(self):
        source = MemorySource("m")
        with pytest.raises(CapabilityError):
            list(source.scan("ghost"))

    def test_column_map_reordering(self):
        # Native table stores columns in a different order / naming.
        native = schema_from_pairs(
            "NATIVE", [("PRICE", "FLOAT"), ("ID", "INT"), ("NM", "TEXT"),
                       ("ADDED", "DATE"), ("ACT", "BOOLEAN")]
        )
        source = MemorySource("m")
        source.add_table(
            "NATIVE",
            native,
            [(10.5, 1, "anvil", "1989-01-01", True)],
        )
        catalog = catalog_for(
            source,
            "m",
            remote="NATIVE",
            column_map={"id": "ID", "name": "NM", "price": "PRICE",
                        "added": "ADDED", "active": "ACT"},
        )
        fragment = scan_fragment(catalog, "m")
        rows = list(source.execute(fragment))
        assert rows == [(1, "anvil", 10.5, datetime.date(1989, 1, 1), True)]


class TestSQLiteSource:
    def make(self):
        source = SQLiteSource("s")
        source.load_table("items", SCHEMA, ROWS)
        return source

    def test_scan_normalizes_native_values(self):
        source = self.make()
        rows = list(source.scan("items"))
        assert rows[0][3] == datetime.date(1989, 1, 1)
        assert rows[0][4] is True and rows[1][4] is False
        assert rows[3][3] is None

    def test_row_count(self):
        assert self.make().row_count("items") == 4

    def test_fragment_compiles_and_runs(self):
        source = self.make()
        catalog = catalog_for(source, "s")
        fragment = filter_fragment(
            catalog, "s", "SELECT * FROM items WHERE active = TRUE AND price < 50"
        )
        sql = source.compile_fragment(fragment)
        assert "WHERE" in sql
        rows = list(source.execute(fragment))
        assert {r[1] for r in rows} == {"anvil", "crate"}

    def test_date_predicate_pushdown(self):
        source = self.make()
        catalog = catalog_for(source, "s")
        fragment = filter_fragment(
            catalog, "s", "SELECT * FROM items WHERE added >= DATE '1989-02-01'"
        )
        rows = list(source.execute(fragment))
        assert {r[0] for r in rows} == {2, 3}

    def test_bad_fragment_surfaces_source_error(self):
        source = self.make()
        catalog = catalog_for(source, "s")
        fragment = scan_fragment(catalog, "s")
        source.connection.execute("DROP TABLE items")
        with pytest.raises(SourceError, match="s"):
            list(source.execute(fragment))

    def test_declare_existing_table(self):
        source = SQLiteSource("s")
        source.connection.execute("CREATE TABLE raw (a INTEGER)")
        source.connection.execute("INSERT INTO raw VALUES (7)")
        source.declare_table("raw", schema_from_pairs("raw", [("a", "INT")]))
        assert list(source.scan("raw")) == [(7,)]

    def test_read_paths_agree_on_values_and_types(self):
        """``scan`` (ANALYZE), ``execute`` and ``execute_pages`` convert
        through one site: equal rows, equal Python type per value."""
        source = SQLiteSource("s")
        # The FLOAT-declared price is stored with INTEGER affinity, so
        # SQLite hands most prices back as int.
        source.connection.execute(
            "CREATE TABLE items (id INTEGER, name TEXT, price INTEGER,"
            " added TEXT, active INTEGER)"
        )
        source.connection.executemany(
            "INSERT INTO items VALUES (?, ?, ?, ?, ?)",
            [
                (1, "anvil", 10, "1989-01-01", 1),
                (2, None, 0, None, 0),
                (3, "crate", None, "1989-03-01", None),
                (4, "drill", 2.5, "1989-04-01", 1),
                (5, "", 7, None, 0),
            ],
        )
        source.declare_table("items", SCHEMA)
        fragment = scan_fragment(catalog_for(source, "s"), "s")

        scanned = list(source.scan("items"))
        executed = list(source.execute(fragment))
        pages = list(source.execute_pages(fragment, 2))
        paged = [row for page in pages for row in page]

        assert [len(page) for page in pages] == [2, 2, 1]
        assert scanned == executed == paged
        for rows in (executed, paged):
            assert [[type(v) for v in row] for row in rows] == \
                [[type(v) for v in row] for row in scanned]
        assert [row[2] for row in scanned] == [10.0, 0.0, None, 2.5, 7.0]
        assert {type(row[2]) for row in scanned} == {float, type(None)}
        assert [row[3] for row in scanned] == [
            datetime.date(1989, 1, 1), None, datetime.date(1989, 3, 1),
            datetime.date(1989, 4, 1), None,
        ]
        assert [row[4] for row in scanned] == [True, False, None, True, False]
        assert {type(row[4]) for row in scanned} == {bool, type(None)}
        assert [row[1] for row in scanned] == ["anvil", None, "crate", "drill", ""]

    def test_duplicate_load_rejected(self):
        source = self.make()
        with pytest.raises(DuplicateObjectError):
            source.load_table("items", SCHEMA, [])

    def test_full_sql_capabilities(self):
        caps = self.make().capabilities()
        assert caps.joins and caps.aggregation and caps.sort and caps.limit
        assert caps.in_list_max > 0


class TestCsvSource:
    def make(self, tmp_path):
        CsvSource.write_table(str(tmp_path), "items", SCHEMA, ROWS)
        return CsvSource("c", str(tmp_path), {"items": SCHEMA})

    def test_write_and_scan_roundtrip(self, tmp_path):
        source = self.make(tmp_path)
        rows = list(source.scan("items"))
        assert rows[0] == (1, "anvil", 10.5, datetime.date(1989, 1, 1), True)
        assert rows[3][3] is None  # empty field is NULL

    def test_scan_only_capabilities(self, tmp_path):
        caps = self.make(tmp_path).capabilities()
        assert not caps.filters and not caps.projection

    def test_filter_fragment_rejected(self, tmp_path):
        source = self.make(tmp_path)
        catalog = catalog_for(source, "c")
        fragment = filter_fragment(
            catalog, "c", "SELECT * FROM items WHERE price > 1"
        )
        with pytest.raises(CapabilityError):
            list(source.execute(fragment))

    def test_scan_fragment_executes(self, tmp_path):
        source = self.make(tmp_path)
        catalog = catalog_for(source, "c")
        rows = list(source.execute(scan_fragment(catalog, "c")))
        assert len(rows) == 4

    def test_missing_file(self, tmp_path):
        source = CsvSource("c", str(tmp_path), {"items": SCHEMA})
        with pytest.raises(SourceError, match="missing file"):
            list(source.scan("items"))

    def test_header_column_subset_check(self, tmp_path):
        path = os.path.join(str(tmp_path), "items.csv")
        with open(path, "w") as handle:
            handle.write("id,name\n1,anvil\n")
        source = CsvSource("c", str(tmp_path), {"items": SCHEMA})
        with pytest.raises(SourceError, match="lacks column"):
            list(source.scan("items"))

    def test_header_order_independent(self, tmp_path):
        path = os.path.join(str(tmp_path), "items.csv")
        with open(path, "w") as handle:
            handle.write("active,price,name,id,added\ntrue,1.5,bolt,9,1989-05-05\n")
        source = CsvSource("c", str(tmp_path), {"items": SCHEMA})
        rows = list(source.scan("items"))
        assert rows == [(9, "bolt", 1.5, datetime.date(1989, 5, 5), True)]


class TestKeyValueSource:
    def make(self):
        source = KeyValueSource("k")
        source.add_table("items", SCHEMA, "id", ROWS)
        return source

    def test_lookup(self):
        source = self.make()
        rows = list(source.lookup("items", [2, 3, 42]))
        assert {r[0] for r in rows} == {2, 3}

    def test_duplicate_keys_rejected(self):
        source = KeyValueSource("k")
        with pytest.raises(SourceError, match="duplicate key"):
            source.add_table("items", SCHEMA, "id", [ROWS[0], ROWS[0]])

    def test_null_key_rejected(self):
        source = KeyValueSource("k")
        with pytest.raises(SourceError, match="non-null"):
            source.add_table(
                "items", SCHEMA, "id", [(None, "x", 1.0, None, True)]
            )

    def test_capabilities_declare_key(self):
        caps = self.make().capabilities()
        assert caps.key_equality_only == {"items": "id"}

    def test_key_equality_fragment(self):
        source = self.make()
        catalog = catalog_for(source, "k")
        fragment = filter_fragment(
            catalog, "k", "SELECT * FROM items WHERE id = 3"
        )
        rows = list(source.execute(fragment))
        assert [r[0] for r in rows] == [3]

    def test_key_in_list_fragment(self):
        source = self.make()
        catalog = catalog_for(source, "k")
        fragment = filter_fragment(
            catalog, "k", "SELECT * FROM items WHERE id IN (1, 4, 99)"
        )
        rows = list(source.execute(fragment))
        assert sorted(r[0] for r in rows) == [1, 4]

    def test_non_key_filter_rejected(self):
        source = self.make()
        catalog = catalog_for(source, "k")
        fragment = filter_fragment(
            catalog, "k", "SELECT * FROM items WHERE price > 1"
        )
        with pytest.raises(CapabilityError):
            list(source.execute(fragment))

    def test_full_scan_allowed(self):
        source = self.make()
        catalog = catalog_for(source, "k")
        rows = list(source.execute(scan_fragment(catalog, "k")))
        assert len(rows) == 4


class TestRestSource:
    def make(self):
        source = RestSource("r", page_rows=2)
        source.add_table("items", SCHEMA, ROWS)
        return source

    def test_filter_and_limit_fragment(self):
        source = self.make()
        catalog = catalog_for(source, "r")
        from repro.core.rewriter import rewrite

        plan = rewrite(
            Analyzer(catalog).bind_statement(
                parse_select("SELECT * FROM items WHERE price >= 5 LIMIT 1")
            )
        )
        # Locate the Limit(Filter(Scan)) or Filter(Scan) shape.
        target = None
        for node in plan.walk():
            if isinstance(node, LimitOp):
                target = node
                break
        assert target is not None
        rows = list(source.execute(Fragment("r", target)))
        assert len(rows) == 1
        assert source.request_log[-1].limit == 1

    def test_pagination_recorded(self):
        source = self.make()
        catalog = catalog_for(source, "r")
        list(source.execute(scan_fragment(catalog, "r")))
        assert source.request_log[-1].pages == 2  # 4 rows / 2 per page

    def test_like_predicate_rejected(self):
        source = self.make()
        catalog = catalog_for(source, "r")
        fragment = filter_fragment(
            catalog, "r", "SELECT * FROM items WHERE name LIKE 'a%'"
        )
        with pytest.raises(CapabilityError):
            list(source.execute(fragment))

    def test_or_predicate_rejected(self):
        source = self.make()
        catalog = catalog_for(source, "r")
        fragment = filter_fragment(
            catalog, "r", "SELECT * FROM items WHERE id = 1 OR id = 2"
        )
        with pytest.raises(CapabilityError):
            list(source.execute(fragment))


class TestCapabilityDataclass:
    def test_restricted_copy(self):
        caps = SourceCapabilities.full_sql()
        weaker = caps.restricted(joins=False, in_list_max=0)
        assert caps.joins and not weaker.joins
        assert weaker.aggregation  # untouched fields preserved

    def test_scan_only_envelope(self):
        caps = SourceCapabilities.scan_only(page_rows=128)
        assert not caps.filters and caps.page_rows == 128
