"""Key-value source: answers equality lookups on a designated key column.

Models an ISAM file, IMS segment, or modern KV service: the only native
"query" is *get by key* (single key or a batch). Anything else degenerates
to a full enumeration that the mediator filters itself — the pushdown
planner knows this from :attr:`SourceCapabilities.key_equality_only` and
plans accordingly (and it is exactly the shape a semijoin bind-list can
exploit).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import TableSchema
from ..datatypes import coerce_value
from ..errors import CapabilityError, DuplicateObjectError, SourceError
from ..core.fragments import Fragment, key_values
from ..core.logical import FilterOp, ScanOp
from ..core.pages import Page, paginate_rows
from ..sql import ast
from .base import Adapter, SourceCapabilities


class KeyValueSource(Adapter):
    """Tables stored as ``key -> row`` dictionaries.

    Example::

        kv = KeyValueSource("profiles")
        kv.add_table("user_profile", schema, key_column="user_id", rows=rows)
    """

    def __init__(self, name: str, page_rows: int = 512) -> None:
        super().__init__(name)
        self._tables: Dict[str, TableSchema] = {}
        self._key_columns: Dict[str, str] = {}
        self._stores: Dict[str, Dict[Any, Tuple[Any, ...]]] = {}
        self._page_rows = page_rows

    def add_table(
        self,
        native_name: str,
        schema: TableSchema,
        key_column: str,
        rows: Sequence[Sequence[Any]],
    ) -> None:
        """Load a table; ``key_column`` values must be unique and non-null."""
        if native_name in self._tables:
            raise DuplicateObjectError(
                f"source {self.name!r} already has table {native_name!r}"
            )
        key_index = schema.index_of(key_column)
        store: Dict[Any, Tuple[Any, ...]] = {}
        for row in rows:
            coerced = tuple(
                coerce_value(value, column.dtype)
                for value, column in zip(row, schema.columns)
            )
            key = coerced[key_index]
            if key is None:
                raise SourceError(self.name, "key column values must be non-null")
            if key in store:
                raise SourceError(self.name, f"duplicate key {key!r}")
            store[key] = coerced
        self._tables[native_name] = schema
        self._key_columns[native_name] = schema.columns[key_index].name
        self._stores[native_name] = store

    # -- Adapter interface ---------------------------------------------------------

    def tables(self) -> Dict[str, TableSchema]:
        return dict(self._tables)

    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(
            filters=True,
            predicate_ops=frozenset({"=", "IN", "AND"}),
            in_list_max=10_000,
            key_equality_only=dict(self._key_columns),
            page_rows=self._page_rows,
        )

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        store = self._stores.get(native_table)
        if store is None:
            self._native_schema(native_table)  # raises uniformly
            return
        yield from store.values()

    def row_count(self, native_table: str) -> Optional[int]:
        store = self._stores.get(native_table)
        return len(store) if store is not None else None

    def lookup(self, native_table: str, keys: Sequence[Any]) -> Iterator[Tuple[Any, ...]]:
        """Native batched get-by-key."""
        store = self._stores.get(native_table)
        if store is None:
            raise CapabilityError(
                f"source {self.name!r} has no table {native_table!r}"
            )
        for key in keys:
            row = store.get(key)
            if row is not None:
                yield row

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        plan = fragment.plan
        if isinstance(plan, ScanOp):
            yield from self._scan_global(plan)
            return
        if isinstance(plan, FilterOp) and isinstance(plan.child, ScanOp):
            scan = plan.child
            keys = self._extract_keys(plan.predicate, scan)
            mapping = scan.effective_mapping
            assert mapping is not None
            indices = self._reorder_indices(scan)
            for row in self.lookup(mapping.remote_table, keys):
                yield tuple(row[i] for i in indices)
            return
        raise CapabilityError(
            f"source {self.name!r} only executes key lookups and full scans"
        )

    def execute_pages(self, fragment: Fragment, page_rows: int) -> Iterator[Page]:
        """Paged execution returning native columnar pages.

        Fast path for bare enumerations: the store's row list is sliced
        and transposed straight into :class:`Page` column vectors.
        Key-lookup fragments page the lookup stream through
        :func:`~repro.core.pages.paginate_rows` instead (hit counts are
        data-dependent, so slicing keys up front could yield partial pages
        mid-stream and break the page contract). Both paths follow the
        contract: full pages, then exactly one final partial — possibly
        empty — page.
        """
        page_rows = max(page_rows, 1)
        plan = fragment.plan
        # Subclasses that override execute() (fault-injection doubles,
        # instrumented sources) must keep seeing every call: take the slow
        # path through their execute() rather than slicing stored rows.
        overridden = type(self).execute is not KeyValueSource.execute
        if not overridden and isinstance(plan, ScanOp):
            mapping = plan.effective_mapping
            if mapping is not None and plan.table.schema is not None:
                store = self._stores.get(mapping.remote_table)
                if store is None:
                    self._native_schema(mapping.remote_table)  # raises uniformly
                    store = {}
                rows = list(store.values())
                indices = self._reorder_indices(plan)
                native_schema = self._native_schema(mapping.remote_table)
                identity = indices == list(range(len(native_schema.columns)))
                full = len(rows) // page_rows
                for index in range(full + 1):
                    chunk = rows[index * page_rows : (index + 1) * page_rows]
                    if not chunk:  # final empty page keeps its width
                        yield Page([[] for _ in indices], 0)
                    elif identity:
                        yield Page([list(col) for col in zip(*chunk)], len(chunk))
                    else:
                        yield Page(
                            [[row[i] for row in chunk] for i in indices],
                            len(chunk),
                        )
                return
        yield from paginate_rows(
            self.execute(fragment), page_rows, len(fragment.output_columns)
        )

    # -- internals ---------------------------------------------------------

    def _scan_global(self, scan: ScanOp) -> Iterator[Tuple[Any, ...]]:
        mapping = scan.effective_mapping
        assert mapping is not None
        indices = self._reorder_indices(scan)
        for row in self.scan(mapping.remote_table):
            yield tuple(row[i] for i in indices)

    def _reorder_indices(self, scan: ScanOp) -> List[int]:
        mapping = scan.effective_mapping
        assert mapping is not None and scan.table.schema is not None
        native_schema = self._native_schema(mapping.remote_table)
        return [
            native_schema.index_of(mapping.remote_column(column.name))
            for column in scan.table.schema.columns
        ]

    def _extract_keys(self, predicate: ast.Expr, scan: ScanOp) -> List[Any]:
        """The key set selected by a pushed predicate.

        The pushdown planner only ships ``key = literal`` / ``key IN
        (literals)`` conjuncts; multiple conjuncts intersect.
        """
        mapping = scan.effective_mapping
        assert mapping is not None
        key_column = self._key_columns.get(mapping.remote_table)
        if key_column is None:
            raise CapabilityError(
                f"source {self.name!r} has no key for table "
                f"{mapping.remote_table!r}"
            )
        key_sets: List[set] = []
        for conjunct in ast.conjuncts(predicate):
            values = key_values(conjunct, key_column, mapping)
            if values is None:
                raise CapabilityError(
                    f"source {self.name!r} cannot evaluate predicate "
                    f"{type(conjunct).__name__} natively"
                )
            key_sets.append(values)
        if not key_sets:
            return []
        result = set.intersection(*key_sets)
        return sorted(result, key=repr)
