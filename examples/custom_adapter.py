"""Writing your own wrapper: federate an application log file.

Run with::

    python examples/custom_adapter.py

Implements a minimal :class:`repro.Adapter` over a plain text log — the
kind of "component information system" a 1989 federation actually faced:
no query language at all, just a file you can read. The wrapper:

* parses log lines into rows on scan;
* declares a small capability envelope (filters, no projection) and runs
  the fragments it accepts on the mediator's own operators, inside the
  wrapper (``run_fragment``);
* then joins the log against a CRM table living on another source.

See docs/writing_adapters.md for the full contract.
"""

import datetime
from itertools import chain
from typing import Any, Dict, Iterator, Optional, Tuple

from repro import (
    Adapter,
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    SourceCapabilities,
)
from repro.catalog.schema import TableSchema, schema_from_pairs
from repro.core.fragments import Fragment
from repro.core.logical import ScanOp
from repro.core.pages import Page, paginate_rows
from repro.core.physical import run_fragment

LOG_LINES = """\
1989-02-06 09:12:01 WARN  user=2 login failed
1989-02-06 09:12:09 INFO  user=2 login ok
1989-02-06 10:03:44 INFO  user=1 report generated
1989-02-06 11:47:13 ERROR user=3 payment bounced
1989-02-07 08:30:00 INFO  user=1 login ok
1989-02-07 09:00:21 ERROR user=2 payment bounced
1989-02-07 16:55:37 WARN  user=4 quota exceeded
""".splitlines()


class LogFileSource(Adapter):
    """A wrapper over parsed log lines.

    The 'native system' can only hand over lines; the wrapper parses them
    and — because it controls a little local compute — also evaluates
    simple predicates with the mediator's own operators, keeping the
    noise off the network.
    """

    SCHEMA = schema_from_pairs(
        "events",
        [
            ("day", "DATE"),
            ("time_of_day", "TEXT"),
            ("level", "TEXT"),
            ("user_id", "INT"),
            ("message", "TEXT"),
        ],
    )

    def __init__(self, name: str, lines) -> None:
        super().__init__(name)
        self._lines = list(lines)

    def tables(self) -> Dict[str, TableSchema]:
        return {"events": self.SCHEMA}

    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(
            filters=True,
            predicate_ops=frozenset(
                {"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "NOT", "LIKE"}
            ),
            projection=False,
            limit=True,
            page_rows=256,
        )

    def scan(self, native_table: str) -> Iterator[Tuple[Any, ...]]:
        self._native_schema(native_table)  # uniform unknown-table error
        for line in self._lines:
            day, time_of_day, level, user_field, *message = line.split()
            yield (
                datetime.date.fromisoformat(day),
                time_of_day,
                level,
                int(user_field.split("=", 1)[1]),
                " ".join(message),
            )

    def row_count(self, native_table: str) -> Optional[int]:
        return len(self._lines)

    def execute(self, fragment: Fragment) -> Iterator[Tuple[Any, ...]]:
        page_rows = self.capabilities().page_rows

        def scan_pages(scan: ScanOp) -> Iterator[Page]:
            assert scan.table.mapping is not None
            rows = self.scan(scan.table.mapping.remote_table)
            return paginate_rows(rows, page_rows, len(scan.columns))

        return chain.from_iterable(
            run_fragment(fragment.plan, scan_pages, page_rows)
        )


def main() -> None:
    gis = GlobalInformationSystem()
    gis.register_source(
        "applog", LogFileSource("applog", LOG_LINES), link=NetworkLink(12.0)
    )
    gis.register_table("events", source="applog")

    crm = MemorySource("crm")
    crm.add_table(
        "users",
        schema_from_pairs("users", [("uid", "INT"), ("uname", "TEXT")]),
        [(1, "Alice"), (2, "Bob"), (3, "Cara"), (4, "Dan")],
    )
    gis.register_source("crm", crm, link=NetworkLink(20.0))
    gis.register_table("users", source="crm")
    gis.analyze()

    print("=== errors and warnings per user (log ⋈ CRM) ===")
    result = gis.query(
        """
        SELECT u.uname, e.level, COUNT(*) AS n
        FROM events e JOIN users u ON e.user_id = u.uid
        WHERE e.level <> 'INFO'
        GROUP BY u.uname, e.level
        ORDER BY u.uname, e.level
        """
    )
    print(result.format_table())
    print()
    print("=== how much was pushed into the wrapper ===")
    print(gis.explain("SELECT user_id FROM events WHERE level = 'ERROR'"))


if __name__ == "__main__":
    main()
