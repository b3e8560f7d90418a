"""Columnar pages: the batch currency of the execution engine.

A :class:`Page` is a fixed set of column vectors (plain Python lists) plus
a row count. Operators exchange pages instead of ``list[tuple]`` row
batches so that vectorized kernels (``repro.core.expressions``) can run
column-at-a-time: one tight loop per column instead of one Python-level
closure call per row per expression node.

Design notes
------------

* **Validity / NULLs.** SQL NULL is represented in-band as ``None``
  inside the column vectors — there is no separate validity bitmap.
  Every vectorized kernel treats ``None`` as NULL and propagates it
  (three-valued logic for booleans). This keeps the representation
  bridgeable to row tuples for free: ``to_rows()`` is a single
  ``zip(*columns)``.

* **Row semantics for compatibility.** ``Page`` deliberately behaves
  like a sequence of row tuples: ``len(page)`` is the row count,
  iterating yields row tuples, ``page[3]`` is a row, ``page[2:5]`` is a
  smaller :class:`Page`, and a page compares equal to the equivalent
  ``list[tuple]``, so row-wise algorithms and tests asserting on raw page
  contents work against pages directly.

* **Zero-column pages.** A projection of no columns (e.g. the inner
  input of ``COUNT(*)`` after pruning) still carries a row count;
  ``to_rows()`` yields ``num_rows`` empty tuples.

This module is dependency-free (no imports from the rest of the engine)
so adapters and the core can both use it without cycles.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Row = Tuple[Any, ...]

#: A column vector: a plain list, any dtype, NULLs in-band as ``None``.
Column = List[Any]

__all__ = [
    "Column",
    "Page",
    "Row",
    "pages_from_rows",
    "paginate_rows",
    "repage",
    "split_batches",
]

class Page:
    """A columnar batch: per-column value vectors plus a row count."""

    __slots__ = ("columns", "num_rows")

    def __init__(self, columns: List[Column], num_rows: int) -> None:
        self.columns = columns
        self.num_rows = num_rows

    # -- construction / bridging --------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], width: Optional[int] = None
    ) -> "Page":
        """Transpose a row batch into a page.

        ``width`` (column count) is required to shape *empty* batches
        correctly — with at least one row the width is inferred.
        """
        num_rows = len(rows)
        if num_rows:
            columns: List[Column] = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in range(width or 0)]
        return cls(columns, num_rows)

    @classmethod
    def empty(cls, width: int) -> "Page":
        """A zero-row page with ``width`` (empty) column vectors."""
        return cls([[] for _ in range(width)], 0)

    def to_rows(self) -> List[Row]:
        """Transpose back to a list of row tuples."""
        if not self.columns:
            return [()] * self.num_rows
        return list(zip(*self.columns))

    # -- shape ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, index: int) -> Column:
        return self.columns[index]

    def __len__(self) -> int:
        return self.num_rows

    def __bool__(self) -> bool:
        return self.num_rows > 0

    # -- selection -----------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Page":
        """Gather the given row positions into a new page.

        ``map(column.__getitem__, indices)`` keeps the gather loop in C.
        """
        return Page(
            [list(map(column.__getitem__, indices)) for column in self.columns],
            len(indices),
        )

    def __getitem__(self, item: Union[int, slice]) -> Union[Row, "Page"]:
        if isinstance(item, slice):
            start, stop, step = item.indices(self.num_rows)
            return Page(
                [column[item] for column in self.columns],
                len(range(start, stop, step)),
            )
        index = item if item >= 0 else item + self.num_rows
        if not 0 <= index < self.num_rows:
            raise IndexError("page row index out of range")
        return tuple(column[index] for column in self.columns)

    # -- row-compatible protocol ----------------------------------------

    def __iter__(self) -> Iterator[Row]:
        if not self.columns:
            return iter([()] * self.num_rows)
        return iter(zip(*self.columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Page):
            return self.num_rows == other.num_rows and self.columns == other.columns
        if isinstance(other, (list, tuple)):
            return self.to_rows() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __repr__(self) -> str:
        return f"Page({self.num_rows} rows x {self.width} cols)"


# ---------------------------------------------------------------------------
# chunking helpers — the single home for batch/page slicing logic
# ---------------------------------------------------------------------------


def pages_from_rows(
    rows: Sequence[Row], size: int, width: Optional[int] = None
) -> Iterator[Page]:
    """Slice a materialized row list into non-empty pages of ``size`` rows."""
    for start in range(0, len(rows), size):
        yield Page.from_rows(rows[start : start + size], width)


def split_batches(batches: Iterable[Page], size: int) -> Iterator[Page]:
    """Re-slice a page stream so no page exceeds ``size`` rows.

    Pages are only ever *split*, never coalesced: network accounting
    charges the adapter's pages as shipped, and splitting afterwards
    keeps row order and transfer totals bit-identical while honouring
    the executor's ``batch_size``. Empty input pages are dropped (they
    exist only for wire accounting, which happens before this point).
    """
    for batch in batches:
        if len(batch) <= size:
            if batch:
                yield batch
            continue
        for start in range(0, len(batch), size):
            yield batch[start : start + size]


def paginate_rows(rows: Iterable[Row], page_rows: int, width: int) -> Iterator[Page]:
    """Chunk adapter output into wire pages (the adapter page contract).

    Yields zero or more *full* pages of exactly ``page_rows`` rows,
    followed by exactly one final partial — possibly empty — page. The
    trailing short page is what tells the mediator the result is
    complete, so it is always emitted (and charged as a network
    message) even when the row count is an exact multiple of
    ``page_rows``. ``width`` shapes the column vectors of empty pages.
    """
    if page_rows < 1:
        raise ValueError("page_rows must be >= 1")
    buffer: List[Row] = []
    for row in rows:
        buffer.append(row)
        if len(buffer) == page_rows:
            yield Page.from_rows(buffer, width)
            buffer = []
    yield Page.from_rows(buffer, width)


def repage(pages: Iterable[Page], page_rows: int, width: int) -> Iterator[Page]:
    """Re-cut a page stream to the adapter page contract.

    The page-stream twin of :func:`paginate_rows`: zero or more full pages
    of exactly ``page_rows`` rows, then exactly one final partial —
    possibly empty — page. A page that arrives full while nothing is
    buffered passes through as is (zero copy); everything else is
    gathered column by column.
    """
    if page_rows < 1:
        raise ValueError("page_rows must be >= 1")
    buffer: List[Column] = [[] for _ in range(width)]
    buffered = 0
    for page in pages:
        if not buffered and page.num_rows == page_rows:
            yield page
            continue
        start = 0
        while start < page.num_rows:
            take = min(page_rows - buffered, page.num_rows - start)
            for column, values in zip(buffer, page.columns):
                column.extend(values[start : start + take])
            buffered += take
            start += take
            if buffered == page_rows:
                yield Page(buffer, buffered)
                buffer = [[] for _ in range(width)]
                buffered = 0
    yield Page(buffer, buffered)
