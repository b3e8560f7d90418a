"""In-memory table source.

Models a cooperative departmental record manager: it can filter, project,
aggregate, and limit its own tables, but cannot join (each request touches
one record type) — a common envelope for non-relational stores of the era.

It has no query engine of its own, so it runs every fragment on the
mediator's operators and vector kernels inside the wrapper
(:func:`~repro.core.physical.run_fragment`), with scans slicing a
columnar mirror of each table.

Also the workhorse test double: tables are loaded directly from Python
rows with type validation.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import TableSchema
from ..datatypes import coerce_value
from ..errors import CapabilityError, DuplicateObjectError, SourceError
from ..core.fragments import Fragment
from ..core.logical import JoinOp, ScanOp
from ..core.pages import Column, Page, paginate_rows
from ..core.physical import run_fragment
from .base import Adapter, SourceCapabilities


class MemorySource(Adapter):
    """A wrapper over plain Python row lists.

    Example::

        crm = MemorySource("crm")
        crm.add_table("customers", schema, rows)
    """

    def __init__(
        self,
        name: str,
        capabilities: Optional[SourceCapabilities] = None,
        page_rows: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self._tables: Dict[str, TableSchema] = {}
        self._rows: Dict[str, List[Tuple[Any, ...]]] = {}
        # Lazily-built columnar mirror of ``_rows`` (one vector per
        # column), so paged scans serve column slices instead of
        # re-transposing the row store on every request. Invalidated on
        # data changes.
        self._columns: Dict[str, List[Column]] = {}
        self._capabilities = capabilities or SourceCapabilities(
            filters=True,
            predicate_ops=frozenset(
                {"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "NOT", "LIKE",
                 "IN", "BETWEEN", "ISNULL"}
            ),
            arithmetic=True,
            functions=frozenset({"UPPER", "LOWER", "LENGTH", "ABS", "COALESCE"}),
            projection=True,
            joins=False,
            aggregation=True,
            sort=False,
            limit=True,
            in_list_max=1000,
        )
        if page_rows is not None:
            # Response page size knob (rows per simulated network message).
            self._capabilities = self._capabilities.restricted(
                page_rows=max(page_rows, 1)
            )

    # -- data loading -----------------------------------------------------------

    def add_table(
        self,
        native_name: str,
        schema: TableSchema,
        rows: Sequence[Sequence[Any]],
    ) -> None:
        """Load a table; every cell is coerced to its declared global type."""
        if native_name in self._tables:
            raise DuplicateObjectError(
                f"source {self.name!r} already has table {native_name!r}"
            )
        coerced: List[Tuple[Any, ...]] = []
        for row_number, row in enumerate(rows):
            if len(row) != len(schema.columns):
                raise SourceError(
                    self.name,
                    f"table {native_name!r} row {row_number} has {len(row)} "
                    f"values, expected {len(schema.columns)}",
                )
            coerced.append(
                tuple(
                    coerce_value(value, column.dtype)
                    for value, column in zip(row, schema.columns)
                )
            )
        self._tables[native_name] = schema
        self._rows[native_name] = coerced
        self._columns.pop(native_name, None)

    def extend_table(self, native_name: str, rows: Sequence[Sequence[Any]]) -> None:
        """Append rows to an existing table (coerced like :meth:`add_table`)."""
        schema = self._native_schema(native_name)
        resolved = self._resolve_name(native_name)
        store = self._rows[resolved]
        self._columns.pop(resolved, None)
        for row in rows:
            store.append(
                tuple(
                    coerce_value(value, column.dtype)
                    for value, column in zip(row, schema.columns)
                )
            )

    def _table_columns(self, resolved: str) -> List[Column]:
        """The columnar mirror of a table, built on first paged scan."""
        columns = self._columns.get(resolved)
        if columns is None:
            rows = self._rows[resolved]
            if rows:
                columns = [list(column) for column in zip(*rows)]
            else:
                columns = [[] for _ in self._tables[resolved].columns]
            self._columns[resolved] = columns
        return columns

    def _resolve_name(self, native_table: str) -> str:
        if native_table in self._rows:
            return native_table
        for name in self._rows:
            if name.lower() == native_table.lower():
                return name
        raise CapabilityError(f"source {self.name!r} has no table {native_table!r}")

    # -- Adapter interface ---------------------------------------------------------

    def tables(self) -> Dict[str, TableSchema]:
        return dict(self._tables)

    def capabilities(self) -> SourceCapabilities:
        return self._capabilities

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        yield from self._rows[self._resolve_name(native_table)]

    def row_count(self, native_table: str) -> Optional[int]:
        return len(self._rows[self._resolve_name(native_table)])

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        return chain.from_iterable(
            self._run(fragment, self._capabilities.page_rows)
        )

    def execute_pages(self, fragment: Fragment, page_rows: int) -> Iterator[Page]:
        """Paged fragment execution: the fragment runs on the engine's own
        operators (:func:`~repro.core.physical.run_fragment`), its scans
        slicing the tables' columnar mirrors (:meth:`_table_columns`)."""
        # Subclasses that override execute() (fault-injection doubles,
        # instrumented sources) must keep seeing every call: their pages
        # come through their execute(), whose super() call runs _run.
        if type(self).execute is not MemorySource.execute:
            yield from paginate_rows(
                self.execute(fragment),
                max(page_rows, 1),
                len(fragment.output_columns),
            )
            return
        yield from self._run(fragment, page_rows)

    def _run(self, fragment: Fragment, page_rows: int) -> Iterator[Page]:
        """The fragment's result pages, per the adapter page contract."""
        if not self._capabilities.joins:
            for node in fragment.plan.walk():
                if isinstance(node, JoinOp):
                    raise CapabilityError(
                        f"source {self.name!r} cannot execute joins"
                    )
        page_rows = max(page_rows, 1)

        def scan_pages(scan: ScanOp) -> Iterator[Page]:
            mapping = scan.effective_mapping
            assert mapping is not None and scan.table.schema is not None
            native_schema = self._native_schema(mapping.remote_table)
            resolved = self._resolve_name(mapping.remote_table)
            columns = self._table_columns(resolved)
            source = [
                columns[native_schema.index_of(mapping.remote_column(column.name))]
                for column in scan.table.schema.columns
            ]
            total = len(self._rows[resolved])
            for start in range(0, total, page_rows):
                stop = min(start + page_rows, total)
                yield Page([column[start:stop] for column in source], stop - start)

        return run_fragment(fragment.plan, scan_pages, page_rows)
