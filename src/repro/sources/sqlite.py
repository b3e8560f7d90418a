"""SQLite-backed source: the federation's fully capable relational citizen.

Fragments are compiled to SQLite SQL (via
:mod:`repro.sources.sqlcompile` + the SQLite printer dialect) and executed
natively — the real pushdown path a mediator would use against a remote
DBMS. Values cross the wrapper boundary in SQLite's native representations
(ISO date strings, 0/1 booleans) and are normalized to global types on the
way out, exercising the heterogeneity machinery.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import TableSchema
from ..datatypes import DataType, coerce_value
from ..errors import CapabilityError, DuplicateObjectError, SourceError
from ..core.fragments import Fragment
from ..core.logical import RelColumn, ScanOp
from ..core.pages import Page
from ..sql.printer import SQLitePrinterDialect, print_statement
from .base import Adapter, SourceCapabilities
from .sqlcompile import fragment_to_statement

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.DATE: "TEXT",
}


class SQLiteSource(Adapter):
    """A wrapper around a ``sqlite3`` database (in-memory by default).

    Example::

        erp = SQLiteSource("erp")
        erp.load_table("ORDERS", schema, rows)
    """

    def __init__(
        self,
        name: str,
        path: str = ":memory:",
        capabilities: Optional[SourceCapabilities] = None,
    ) -> None:
        super().__init__(name)
        # The fragment scheduler executes fragments from worker threads;
        # sqlite3 objects are not thread-safe, so cross-thread use is
        # allowed at connect time and every cursor runs under the lock.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self._tables: Dict[str, TableSchema] = {}
        self._capabilities = capabilities or SourceCapabilities.full_sql()
        self._register_missing_functions()

    def _register_missing_functions(self) -> None:
        """Define the global-dialect functions SQLite lacks natively.

        Dates live as ISO TEXT inside SQLite, so the date-part functions
        operate on strings here.
        """

        def year(value: Optional[str]) -> Optional[int]:
            return int(value[0:4]) if value is not None else None

        def month(value: Optional[str]) -> Optional[int]:
            return int(value[5:7]) if value is not None else None

        def day(value: Optional[str]) -> Optional[int]:
            return int(value[8:10]) if value is not None else None

        def ceil_(value):
            if value is None:
                return None
            import math

            return type(value)(math.ceil(value))

        def floor_(value):
            if value is None:
                return None
            import math

            return type(value)(math.floor(value))

        def mod_(a, b):
            if a is None or b is None or b == 0:
                return None
            return a - b * int(a / b)

        register = self._connection.create_function
        register("YEAR", 1, year, deterministic=True)
        register("MONTH", 1, month, deterministic=True)
        register("DAY", 1, day, deterministic=True)
        register("CEIL", 1, ceil_, deterministic=True)
        register("FLOOR", 1, floor_, deterministic=True)
        register("MOD", 2, mod_, deterministic=True)

    # -- data loading -----------------------------------------------------------

    def load_table(
        self,
        native_name: str,
        schema: TableSchema,
        rows: Sequence[Sequence[Any]] = (),
    ) -> None:
        """Create and populate a native table from Python rows."""
        if native_name in self._tables:
            raise DuplicateObjectError(
                f"source {self.name!r} already has table {native_name!r}"
            )
        columns_sql = ", ".join(
            f'"{column.name}" {_SQLITE_TYPES[column.dtype]}'
            for column in schema.columns
        )
        with self._lock:
            self._connection.execute(
                f'CREATE TABLE "{native_name}" ({columns_sql})'
            )
            if rows:
                placeholders = ", ".join("?" for _ in schema.columns)
                self._connection.executemany(
                    f'INSERT INTO "{native_name}" VALUES ({placeholders})',
                    [
                        tuple(
                            _to_sqlite(coerce_value(value, column.dtype))
                            for value, column in zip(row, schema.columns)
                        )
                        for row in rows
                    ],
                )
            self._connection.commit()
        self._tables[native_name] = schema

    def declare_table(self, native_name: str, schema: TableSchema) -> None:
        """Declare the global-typed schema of a pre-existing native table."""
        if native_name in self._tables:
            raise DuplicateObjectError(
                f"source {self.name!r} already declares table {native_name!r}"
            )
        self._tables[native_name] = schema

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (tests / advanced loading)."""
        return self._connection

    # -- Adapter interface ---------------------------------------------------------

    def tables(self) -> Dict[str, TableSchema]:
        return dict(self._tables)

    def capabilities(self) -> SourceCapabilities:
        return self._capabilities

    #: Rows pulled per lock acquisition by :meth:`execute` and :meth:`scan`.
    _FETCH_CHUNK = 512

    def _pages(
        self, sql: str, columns: Sequence[Any], page_rows: int
    ) -> Iterator[Page]:
        """Run ``sql`` and yield its result as pages of ``page_rows`` rows,
        converted from SQLite's representations to global values.

        The one conversion site of this wrapper. Each ``fetchmany`` chunk
        becomes one page, transposed once and converted a column at a
        time: only BOOLEAN, DATE and integer values in FLOAT columns are
        touched; every other column is copied as fetched. The connection
        lock is held only while touching the cursor (concurrent fragments
        from the scheduler share one sqlite3 connection). Follows the page
        contract: full pages, then one final partial (possibly empty) page.
        """
        converters = [_CONVERTERS.get(column.dtype, list) for column in columns]
        try:
            with self._lock:
                cursor = self._connection.execute(sql)
                chunk = cursor.fetchmany(page_rows)
        except sqlite3.Error as exc:
            raise SourceError(self.name, f"{exc} (sql: {sql})") from exc
        while True:
            if chunk:
                yield Page(
                    [
                        convert(raw)
                        for convert, raw in zip(converters, zip(*chunk))
                    ],
                    len(chunk),
                )
            else:  # final empty page keeps its width
                yield Page.empty(len(converters))
            if len(chunk) < page_rows:
                return
            with self._lock:
                chunk = cursor.fetchmany(page_rows)

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        schema = self._native_schema(native_table)
        columns_sql = ", ".join(f'"{column.name}"' for column in schema.columns)
        sql = f'SELECT {columns_sql} FROM "{native_table}"'
        for page in self._pages(sql, schema.columns, self._FETCH_CHUNK):
            yield from page

    def row_count(self, native_table: str) -> Optional[int]:
        self._native_schema(native_table)  # existence check
        with self._lock:
            cursor = self._connection.execute(
                f'SELECT COUNT(*) FROM "{native_table}"'
            )
            return int(cursor.fetchone()[0])

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        sql = self.compile_fragment(fragment)
        for page in self._pages(sql, fragment.output_columns, self._FETCH_CHUNK):
            yield from page

    def execute_pages(self, fragment: Fragment, page_rows: int) -> Iterator[Page]:
        """Page-aligned execution: one ``fetchmany(page_rows)`` per charged
        response page (see :meth:`_pages`)."""
        sql = self.compile_fragment(fragment)
        yield from self._pages(sql, fragment.output_columns, max(page_rows, 1))

    def compile_fragment(self, fragment: Fragment) -> str:
        """The native SQL this wrapper runs for a fragment (EXPLAIN surface)."""

        def naming(scan: ScanOp):
            mapping = scan.effective_mapping
            assert mapping is not None
            if mapping.remote_table not in self._tables and not any(
                name.lower() == mapping.remote_table.lower() for name in self._tables
            ):
                raise CapabilityError(
                    f"source {self.name!r} has no table {mapping.remote_table!r}"
                )

            def column_namer(column: RelColumn) -> str:
                return mapping.remote_column(column.name)

            return mapping.remote_table, column_namer

        statement = fragment_to_statement(fragment.plan, naming)
        return print_statement(statement, SQLitePrinterDialect())


def _to_sqlite(value: Any) -> Any:
    """Global value → SQLite storage representation."""
    import datetime

    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _to_bool(raw: Sequence[Any]) -> List[Any]:
    return [None if value is None else bool(value) for value in raw]


def _to_date(raw: Sequence[Any]) -> List[Any]:
    return [
        None if value is None else coerce_value(value, DataType.DATE)
        for value in raw
    ]


def _to_float(raw: Sequence[Any]) -> List[Any]:
    # REAL columns hand back integral values as ``int``.
    return [float(value) if type(value) is int else value for value in raw]


#: SQLite column → global column vector, per declared type (others: as is).
_CONVERTERS: Dict[DataType, Callable[[Sequence[Any]], List[Any]]] = {
    DataType.BOOLEAN: _to_bool,
    DataType.DATE: _to_date,
    DataType.FLOAT: _to_float,
}
