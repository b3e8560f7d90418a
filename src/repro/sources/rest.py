"""Simulated web-service source with paginated responses.

Models an external information service reachable through a constrained
HTTP-style API: simple per-column comparison filters ANDed together, an
optional result limit, small response pages, and *no* projection (the
service always returns whole records). The page size drives the simulated
network's message count, making this the latency-sensitive member of the
federation.

The "service" is backed by in-memory rows; a ``request_log`` records each
logical API call for tests and for demonstrating wrapper behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import TableSchema
from ..datatypes import coerce_value
from ..errors import CapabilityError, DuplicateObjectError
from ..core.expressions import build_layout, compile_batch_predicate
from ..core.fragments import Fragment
from ..core.logical import FilterOp, LimitOp, ScanOp
from ..core.pages import Page
from ..sql import ast
from .base import Adapter, SourceCapabilities


@dataclass
class ApiRequest:
    """One logical call against the simulated service."""

    table: str
    filters: str
    limit: Optional[int]
    pages: int = 0
    rows: int = 0


class RestSource(Adapter):
    """A paginated filter-and-limit web service.

    Example::

        feed = RestSource("feed", page_rows=100)
        feed.add_table("events", schema, rows)
    """

    def __init__(self, name: str, page_rows: int = 100) -> None:
        super().__init__(name)
        self._tables: Dict[str, TableSchema] = {}
        self._rows: Dict[str, List[Tuple[Any, ...]]] = {}
        self._page_rows = page_rows
        self.request_log: List[ApiRequest] = []

    def add_table(
        self,
        native_name: str,
        schema: TableSchema,
        rows: Sequence[Sequence[Any]],
    ) -> None:
        """Load the service's dataset for one endpoint."""
        if native_name in self._tables:
            raise DuplicateObjectError(
                f"source {self.name!r} already has table {native_name!r}"
            )
        self._tables[native_name] = schema
        self._rows[native_name] = [
            tuple(
                coerce_value(value, column.dtype)
                for value, column in zip(row, schema.columns)
            )
            for row in rows
        ]

    # -- Adapter interface ---------------------------------------------------------

    def tables(self) -> Dict[str, TableSchema]:
        return dict(self._tables)

    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(
            filters=True,
            predicate_ops=frozenset({"=", "<>", "<", "<=", ">", ">=", "AND"}),
            arithmetic=False,
            functions=frozenset(),
            projection=False,
            joins=False,
            aggregation=False,
            sort=False,
            limit=True,
            in_list_max=0,
            page_rows=self._page_rows,
        )

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        rows = self._rows.get(native_table)
        if rows is None:
            self._native_schema(native_table)
            return
        yield from rows

    def row_count(self, native_table: str) -> Optional[int]:
        rows = self._rows.get(native_table)
        return len(rows) if rows is not None else None

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        plan = fragment.plan
        limit: Optional[int] = None
        offset = 0
        if isinstance(plan, LimitOp):
            limit, offset = plan.limit, plan.offset
            plan = plan.child
        predicate: Optional[ast.Expr] = None
        if isinstance(plan, FilterOp):
            predicate = plan.predicate
            self._check_predicate(predicate)
            plan = plan.child
        if not isinstance(plan, ScanOp):
            raise CapabilityError(
                f"source {self.name!r} only serves filter+limit requests over "
                "single endpoints"
            )
        scan = plan
        mapping = scan.effective_mapping
        assert mapping is not None and scan.table.schema is not None
        native_schema = self._native_schema(mapping.remote_table)
        indices = [
            native_schema.index_of(mapping.remote_column(column.name))
            for column in scan.table.schema.columns
        ]
        request = ApiRequest(
            table=mapping.remote_table,
            filters="yes" if predicate is not None else "no",
            limit=limit,
        )
        self.request_log.append(request)

        rows: Iterator[Tuple[Any, ...]] = (
            tuple(row[i] for i in indices)
            for row in self.scan(mapping.remote_table)
        )
        if predicate is not None:
            select = compile_batch_predicate(predicate, build_layout(scan.columns))
            rows = iter(select(Page.from_rows(list(rows), len(indices))))

        emitted = 0
        skipped = 0
        for reordered in rows:
            if skipped < offset:
                skipped += 1
                continue
            if limit is not None and emitted >= limit:
                break
            emitted += 1
            request.rows += 1
            yield reordered
        request.pages = max(1, -(-request.rows // self._page_rows))

    def _check_predicate(self, predicate: ast.Expr) -> None:
        """Reject predicate shapes outside the advertised API surface."""
        allowed_ops = {"=", "<>", "<", "<=", ">", ">=", "AND"}
        for node in ast.walk_expression(predicate):
            if isinstance(node, ast.BinaryOp):
                if node.op not in allowed_ops:
                    raise CapabilityError(
                        f"source {self.name!r} does not support operator "
                        f"{node.op!r}"
                    )
            elif not isinstance(node, (ast.BoundRef, ast.Literal)):
                raise CapabilityError(
                    f"source {self.name!r} does not support "
                    f"{type(node).__name__} predicates"
                )
