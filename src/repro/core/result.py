"""Query results and metrics as seen by mediator clients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .physical import ExecutionMetrics


@dataclass
class QueryMetrics:
    """End-to-end measurements for one query execution.

    ``network`` holds exact transfer accounting from the simulated network;
    ``simulated_ms`` is the virtual network time (deterministic across
    machines), ``wall_ms`` the real elapsed time on this machine, and
    ``planning_ms`` the optimizer's share of it.
    """

    network: ExecutionMetrics
    wall_ms: float = 0.0
    planning_ms: float = 0.0

    @property
    def simulated_ms(self) -> float:
        return self.network.network_ms

    @property
    def rows_shipped(self) -> int:
        return self.network.rows_shipped

    @property
    def bytes_shipped(self) -> float:
        return self.network.bytes_shipped

    @property
    def messages(self) -> int:
        return self.network.messages

    def summary(self) -> str:
        lines = [
            f"{self.network.rows_shipped} rows / "
            f"{self.network.bytes_shipped:.0f} bytes shipped in "
            f"{self.network.messages} messages; "
            f"simulated network {self.simulated_ms:.1f} ms; "
            f"wall {self.wall_ms:.1f} ms (planning {self.planning_ms:.1f} ms)"
        ]
        net = self.network
        if net.batches_output:
            lines.append(
                f"{net.rows_output} result rows in {net.batches_output} "
                f"batches (avg {net.batch_rows_avg:.1f} rows/batch)"
            )
        if net.scheduler_mode != "sequential":
            lines.append(
                f"scheduler {net.scheduler_mode}: "
                f"peak {net.fragments_in_flight_peak} fragments in flight, "
                f"{net.scheduler_stalls} stalls; "
                f"simulated critical path {net.parallel_ms:.1f} ms"
            )
        if (
            net.fragment_cache_hits
            or net.fragment_cache_misses
            or net.materialized_view_hits
        ):
            lines.append(
                f"semantic cache: {net.fragment_cache_hits} fragment "
                f"hit(s) / {net.fragment_cache_misses} miss(es), "
                f"{net.fragment_cache_bytes_saved:.0f} bytes saved; "
                f"{net.materialized_view_hits} materialized view hit(s)"
            )
        if net.breaker_trips or net.breaker_fallbacks:
            lines.append(
                f"circuit breakers: {net.breaker_trips} trips, "
                f"{net.breaker_fallbacks} replica fallbacks"
            )
        return "\n".join(lines)


class QueryResult:
    """Materialized result rows plus column names, metrics, and plan text.

    ``complete`` is first-class completeness metadata: False means one or
    more sources failed past their retry/breaker/replica envelope under
    ``on_source_failure="partial"`` and their rows are missing;
    ``excluded_sources`` maps each such source to the reason it was
    dropped. A partial answer is never silently mistaken for a full one —
    callers, the REPL banner, EXPLAIN ANALYZE, and the obs sink all
    surface this flag.
    """

    def __init__(
        self,
        column_names: List[str],
        rows: List[Tuple[Any, ...]],
        metrics: QueryMetrics,
        complete: bool = True,
        excluded_sources: Optional[Dict[str, str]] = None,
    ) -> None:
        self.column_names = column_names
        self.rows = rows
        self.metrics = metrics
        self.complete = complete
        self.excluded_sources = dict(excluded_sources or {})

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> Optional[Tuple[Any, ...]]:
        """The first row, or None for an empty result."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a 1×1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.column_names) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.column_names)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.column_names, row)) for row in self.rows]

    def format_table(self, max_rows: int = 20) -> str:
        """Fixed-width textual rendering (for examples and the README)."""
        shown = self.rows[:max_rows]
        cells = [[_render(v) for v in row] for row in shown]
        widths = [len(name) for name in self.column_names]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        header = " | ".join(
            name.ljust(width) for name, width in zip(self.column_names, widths)
        )
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells
        ]
        lines = [header, rule, *body]
        if len(self.rows) > max_rows:
            lines.append(f"... (+{len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        partial = "" if self.complete else ", partial"
        return (
            f"QueryResult({len(self.rows)} rows, "
            f"columns={self.column_names}{partial})"
        )


def _render(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
