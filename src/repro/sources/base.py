"""Adapter (wrapper) interface and capability declarations.

A :class:`SourceCapabilities` value is a wrapper's *contract* with the
pushdown planner: it enumerates exactly which plan shapes the source can
evaluate natively. The planner never sends anything outside the envelope;
whatever the source cannot do, the mediator *compensates* for above the
exchange.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterator, Optional, Tuple

from ..catalog.schema import TableSchema
from ..catalog.statistics import TableStatistics
from ..errors import CapabilityError

#: Comparison-ish operators a filter-capable source may declare.
ALL_PREDICATE_OPS = frozenset(
    {"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "NOT", "LIKE", "IN",
     "BETWEEN", "ISNULL"}
)

#: Default page size for streaming fragment results back to the mediator.
DEFAULT_PAGE_ROWS = 1024


@dataclass(frozen=True)
class SourceCapabilities:
    """What one component system can execute natively.

    Attributes:
        filters: the source evaluates row predicates at all.
        predicate_ops: operators allowed inside pushed predicates (a subset
            of :data:`ALL_PREDICATE_OPS`).
        arithmetic: arithmetic (+,-,*,/,%) allowed inside pushed expressions.
        functions: scalar function names the source implements.
        projection: the source returns only requested columns/expressions.
        joins: the source joins its *own* tables (never across sources).
        aggregation: GROUP BY + COUNT/SUM/AVG/MIN/MAX.
        sort: ORDER BY.
        limit: LIMIT/OFFSET.
        in_list_max: maximum literal count in a pushed IN list (0 disables;
            bounds semijoin bind lists).
        key_equality_only: map of native table name → key column, for
            sources that *only* answer equality lookups on a key.
        page_rows: rows per response message (drives network message counts).
    """

    filters: bool = False
    predicate_ops: FrozenSet[str] = frozenset()
    arithmetic: bool = False
    functions: FrozenSet[str] = frozenset()
    projection: bool = False
    joins: bool = False
    aggregation: bool = False
    sort: bool = False
    limit: bool = False
    in_list_max: int = 0
    key_equality_only: Optional[Dict[str, str]] = None
    page_rows: int = DEFAULT_PAGE_ROWS

    def restricted(self, **changes: Any) -> "SourceCapabilities":
        """A copy with some capabilities altered (used by ablation benches)."""
        return replace(self, **changes)

    @staticmethod
    def scan_only(page_rows: int = DEFAULT_PAGE_ROWS) -> "SourceCapabilities":
        """The weakest envelope: full-table scans only."""
        return SourceCapabilities(page_rows=page_rows)

    @staticmethod
    def full_sql(page_rows: int = DEFAULT_PAGE_ROWS, in_list_max: int = 500) -> "SourceCapabilities":
        """The strongest envelope (a cooperative relational DBMS)."""
        from ..sql.functions import scalar_names

        return SourceCapabilities(
            filters=True,
            predicate_ops=ALL_PREDICATE_OPS,
            arithmetic=True,
            functions=frozenset(scalar_names()),
            projection=True,
            joins=True,
            aggregation=True,
            sort=True,
            limit=True,
            in_list_max=in_list_max,
            page_rows=page_rows,
        )


class Adapter(abc.ABC):
    """Wrapper base class for component information systems.

    Subclasses implement the native-side of fragment execution. The
    mediator interacts only through:

    * :meth:`tables` — native table schemas (native names/column names);
    * :meth:`capabilities` — the pushdown envelope;
    * :meth:`execute` — run a fragment, yield global-typed row tuples;
    * :meth:`execute_pages` — the same result as response pages (what the
      exchange actually drains and charges; default chunks ``execute``);
    * :meth:`scan` — full scan of one native table (ANALYZE, weak sources).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def tables(self) -> Dict[str, TableSchema]:
        """Native tables, keyed by native name (case-sensitive as stored)."""

    @abc.abstractmethod
    def capabilities(self) -> SourceCapabilities:
        """The source's declared pushdown envelope."""

    @abc.abstractmethod
    def execute(self, fragment: "Fragment") -> Iterator[Tuple[Any, ...]]:
        """Execute a fragment within the capability envelope.

        The pushdown planner guarantees the fragment fits
        :meth:`capabilities`; adapters should still raise
        :class:`~repro.errors.CapabilityError` on violations (defense against
        planner bugs, and direct API misuse).
        """

    def execute_pages(
        self, fragment: "Fragment", page_rows: int
    ) -> Iterator["Page"]:
        """Execute a fragment and stream its result as columnar pages.

        The page contract (what the exchange charges the simulated network
        for, one message per page): zero or more full pages of exactly
        ``page_rows`` rows, then exactly one final partial page — possibly
        empty. Every page is a :class:`~repro.core.pages.Page` carrying
        global-typed values; the exchange hands it to the operators as
        is. The default implementation chunks :meth:`execute` through
        :func:`repro.core.pages.paginate_rows`; adapters whose native
        protocol is already paged (cursors) or already columnar override
        this to align fetches with the page size and convert each page at
        one site (``SQLiteSource._pages``).

        Fault injection (:mod:`repro.sources.faults`) wraps this method
        from the mediator side — every fetch routes through
        ``ExecutionContext.execute_pages`` — so adapters need no fault
        awareness of their own; scripted connect failures, mid-stream
        outages, and latency spikes apply uniformly to every source kind.
        """
        return paginate_rows(
            self.execute(fragment), max(page_rows, 1), len(fragment.output_columns)
        )

    @abc.abstractmethod
    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        """Full scan of one native table in schema column order."""

    def row_count(self, native_table: str) -> Optional[int]:
        """Cheap row-count metadata if the source keeps it (else None)."""
        return None

    def table_statistics(self, native_table: str) -> Optional[TableStatistics]:
        """Source-maintained statistics, if any (else the mediator ANALYZEs)."""
        return None

    def _native_schema(self, native_table: str) -> TableSchema:
        """Schema lookup helper with a capability-flavored error."""
        schema = self.tables().get(native_table)
        if schema is None:
            for name, candidate in self.tables().items():
                if name.lower() == native_table.lower():
                    return candidate
            raise CapabilityError(
                f"source {self.name!r} has no table {native_table!r}"
            )
        return schema


# Imported at the bottom to avoid a cycle: fragments reference logical plans,
# which live in core; core imports sources only for typing.
from ..core.fragments import Fragment  # noqa: E402  (re-export for adapters)
from ..core.pages import Page, paginate_rows  # noqa: E402  (re-export)

__all__ = [
    "Adapter",
    "SourceCapabilities",
    "Fragment",
    "Page",
    "ALL_PREDICATE_OPS",
    "DEFAULT_PAGE_ROWS",
    "paginate_rows",
]
