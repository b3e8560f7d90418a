"""CSV flat-file source: the federation's weakest member.

Models an archival system that can only hand over whole files: the
capability envelope is scan-only, so the mediator compensates for *all*
filtering, projection, and aggregation. Experiment T3 uses it as the
low end of the pushdown spectrum.

Files live in one directory, one ``<table>.csv`` per table, with a header
row. Empty fields are NULL.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..catalog.schema import TableSchema
from ..datatypes import coerce_value
from ..errors import CapabilityError, SourceError
from ..core.fragments import Fragment
from ..core.logical import ScanOp
from .base import Adapter, SourceCapabilities


class CsvSource(Adapter):
    """A directory of CSV files, one per table.

    Example::

        CsvSource.write_table("/data/archive", "shipments", schema, rows)
        archive = CsvSource("archive", "/data/archive", {"shipments": schema})
    """

    def __init__(
        self,
        name: str,
        directory: str,
        schemas: Dict[str, TableSchema],
        page_rows: int = 4096,
    ) -> None:
        super().__init__(name)
        self._directory = directory
        self._schemas = dict(schemas)
        self._capabilities = SourceCapabilities.scan_only(
            page_rows=max(page_rows, 1)
        )

    @staticmethod
    def write_table(
        directory: str,
        native_name: str,
        schema: TableSchema,
        rows: Sequence[Sequence[Any]],
    ) -> str:
        """Materialize rows as ``<directory>/<native_name>.csv``; returns path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{native_name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema.column_names())
            for row in rows:
                writer.writerow(["" if v is None else _render(v) for v in row])
        return path

    # -- Adapter interface ---------------------------------------------------------

    def tables(self) -> Dict[str, TableSchema]:
        return dict(self._schemas)

    def capabilities(self) -> SourceCapabilities:
        return self._capabilities

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        schema = self._native_schema(native_table)
        path = os.path.join(self._directory, f"{native_table}.csv")
        if not os.path.exists(path):
            raise SourceError(self.name, f"missing file {path!r}")
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                return
            positions = []
            lowered = [h.lower() for h in header]
            for column in schema.columns:
                try:
                    positions.append(lowered.index(column.name.lower()))
                except ValueError:
                    raise SourceError(
                        self.name,
                        f"file {path!r} lacks column {column.name!r}",
                    ) from None
            for record in reader:
                yield tuple(
                    None
                    if record[position] == ""
                    else coerce_value(record[position], column.dtype)
                    for position, column in zip(positions, schema.columns)
                )

    def row_count(self, native_table: str) -> Optional[int]:
        # Counting requires a scan anyway; leave it to ANALYZE.
        return None

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        # Scan-only: the fragment must be a bare table scan.
        if not isinstance(fragment.plan, ScanOp):
            raise CapabilityError(
                f"source {self.name!r} only executes full table scans, got "
                f"{type(fragment.plan).__name__}"
            )
        scan = fragment.plan
        mapping = scan.effective_mapping
        assert mapping is not None and scan.table.schema is not None
        native_schema = self._native_schema(mapping.remote_table)
        indices = [
            native_schema.index_of(mapping.remote_column(column.name))
            for column in scan.table.schema.columns
        ]
        for row in self.scan(mapping.remote_table):
            yield tuple(row[i] for i in indices)


def _render(value: Any) -> str:
    import datetime

    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
