"""The answer oracle: a stdlib ``sqlite3`` database holding the same
generated rows, sharing no code with the engine under test.

An answer is recorded as a row count plus an order-insensitive checksum
over normalised cells (floats to 6 significant digits, dates as ISO text,
booleans as 0/1, NULL as a marker). Two correct engines can still round a
float sum to different sixth digits when it sits on a rounding boundary,
so a checksum mismatch falls back to comparing the sorted rows cell by
cell with a relative tolerance before the answer is called wrong.
"""

from __future__ import annotations

import datetime
import re
import sqlite3
import zlib
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import spec

Row = Tuple[Any, ...]

_SQLITE_TYPES = {
    "INT": "INTEGER", "FLOAT": "REAL", "TEXT": "TEXT", "DATE": "TEXT",
    "BOOLEAN": "INTEGER",
}
#: The engine writes ``DATE '1989-02-06'``; SQLite compares ISO text.
_DATE_LITERAL = re.compile(r"\bDATE\s+(?=')", re.IGNORECASE)
FLOAT_TOLERANCE = 1e-6


def normalise_cell(value: Any) -> Any:
    """One cell in the form both engines agree on."""
    if value is None:
        return "\0NULL"
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def checksum(rows: Iterable[Sequence[Any]]) -> int:
    """Order-insensitive: the sum of per-row CRCs."""
    total = 0
    for row in rows:
        text = repr([normalise_cell(cell) for cell in row])
        total += zlib.crc32(text.encode())
    return total & 0xFFFFFFFFFFFFFFFF


def _comparable(value: Any) -> Any:
    """Like :func:`normalise_cell` but floats stay numeric."""
    if isinstance(value, float):
        return value
    return normalise_cell(value)


def _sort_key(row: Sequence[Any]) -> Tuple[Any, ...]:
    # Exact cells first so a float's last digits cannot reorder rows that
    # differ elsewhere; floats coarsened so near-equal ones sort together.
    exact = tuple(
        (type(cell).__name__, cell) for cell in row if not isinstance(cell, float)
    )
    coarse = tuple(round(cell, 3) for cell in row if isinstance(cell, float))
    return exact + coarse


def rows_match(expected: Sequence[Row], actual: Sequence[Sequence[Any]]) -> bool:
    """Tolerant, order-insensitive comparison (the slow path)."""
    if len(expected) != len(actual):
        return False
    left = sorted(
        (tuple(_comparable(c) for c in row) for row in expected), key=_sort_key
    )
    right = sorted(
        (tuple(_comparable(c) for c in row) for row in actual), key=_sort_key
    )
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, (float, int)):
                if abs(a - b) > FLOAT_TOLERANCE * max(abs(a), abs(b), 1.0):
                    return False
            elif a != b:
                return False
    return True


class Answer(NamedTuple):
    row_count: int
    checksum: int
    rows: List[Row]

    def accepts(self, rows: Sequence[Sequence[Any]]) -> bool:
        if len(rows) != self.row_count:
            return False
        return checksum(rows) == self.checksum or rows_match(self.rows, rows)


class Oracle:
    """Loads one workload's rows and answers SQL texts."""

    def __init__(self, workload: spec.WorkloadSpec, rows: Dict[str, List[Row]]) -> None:
        self._db = sqlite3.connect(":memory:")
        tables = dict(rows)
        if workload.name == "fanout":
            # The shards reunite as the view's name; same columns as orders.
            tables = {
                "orders_all": rows["orders"][
                    : spec.FANOUT_SHARDS * spec.FANOUT_SHARD_ROWS
                ],
                "customers": rows["customers"],
            }
        for table, table_rows in tables.items():
            columns = spec.TABLE_COLUMNS[
                "orders" if table == "orders_all" else table
            ]
            ddl = ", ".join(
                f"{name} {_SQLITE_TYPES[kind]}" for name, kind in columns
            )
            self._db.execute(f"CREATE TABLE {table} ({ddl})")
            marks = ", ".join("?" for _ in columns)
            self._db.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [tuple(_to_sqlite(cell) for cell in row) for row in table_rows],
            )
        self._db.commit()

    def answer(self, sql: str) -> Answer:
        rows = self._db.execute(_DATE_LITERAL.sub("", sql)).fetchall()
        return Answer(len(rows), checksum(rows), rows)

    def close(self) -> None:
        self._db.close()


def _to_sqlite(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value
