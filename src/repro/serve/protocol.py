"""JSON-lines wire protocol for the query service.

One request or response per line, each a JSON object, UTF-8, ``\\n``
terminated. Requests carry ``op`` (and ``id`` for correlation, echoed
back verbatim); responses carry ``ok`` plus either the op's payload or an
``error`` object.

Value encoding must be *lossless*: result cells are only the global
scalar types (INTEGER / FLOAT / TEXT / BOOLEAN / DATE / NULL), and JSON
covers all but DATE natively. Dates travel as ``{"$date": "YYYY-MM-DD"}``
— unambiguous because a plain dict can never appear in a cell.

Error payloads keep failures *typed* across the wire: ``code`` names the
exception class, ``retryable`` tells clients whether backoff-and-retry is
sane, and ``details`` carries structured attribution (e.g. a timeout's
budget/elapsed/source breakdown) so a client can render exactly what a
local caller of ``Mediator.query()`` would have seen.
"""

from __future__ import annotations

import json
from datetime import date
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    BindError,
    CatalogError,
    ExecutionError,
    GISError,
    ParseError,
    PlanError,
    ProtocolError,
    QueryTimeoutError,
    ServerError,
    ServerOverloadedError,
    SourceError,
)

#: Wire protocol revision; servers reject clients announcing a higher one.
PROTOCOL_VERSION = 1

MAX_LINE_BYTES = 4 * 1024 * 1024


# ---------------------------------------------------------------------------
# value round-tripping
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """One result cell to its JSON form (dates become ``{"$date": ...}``)."""
    if isinstance(value, date):
        return {"$date": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "$date" in value:
        return date.fromisoformat(value["$date"])
    return value


def encode_row(row: Sequence[Any]) -> List[Any]:
    return [encode_value(cell) for cell in row]


def decode_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(decode_value(cell) for cell in row)


# ---------------------------------------------------------------------------
# message framing
# ---------------------------------------------------------------------------


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on bad input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages must be JSON objects, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------------------------
# typed errors across the wire
# ---------------------------------------------------------------------------


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """An exception as a wire error object, keeping typed attribution."""
    payload: Dict[str, Any] = {
        "code": type(exc).__name__,
        "message": str(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
    }
    details: Dict[str, Any] = {}
    if isinstance(exc, QueryTimeoutError):
        details = {
            "budget_ms": exc.budget_ms,
            "elapsed_ms": exc.elapsed_ms,
            "source_name": exc.source_name,
            "per_source_rows": dict(exc.per_source_rows),
        }
    elif isinstance(exc, SourceError):
        details = {"source_name": exc.source_name}
    elif isinstance(exc, ServerOverloadedError):
        details = {
            "tenant": exc.tenant,
            "queued": exc.queued,
            "limit": exc.limit,
        }
    if details:
        payload["details"] = details
    return payload


#: Error codes decoded back to their exception class client-side. Codes
#: outside this table degrade to the nearest base class, never to a bare
#: Exception — a wire error is always a GISError.
_ERROR_CLASSES = {
    "ParseError": ParseError,
    "BindError": BindError,
    "CatalogError": CatalogError,
    "PlanError": PlanError,
    "ExecutionError": ExecutionError,
    "ServerError": ServerError,
    "ProtocolError": ProtocolError,
    "GISError": GISError,
}


def decode_error(payload: Dict[str, Any]) -> GISError:
    """A wire error object back to a (typed) exception instance."""
    code = payload.get("code", "GISError")
    message = payload.get("message", "server error")
    details = payload.get("details", {}) or {}
    if code == "QueryTimeoutError":
        return QueryTimeoutError(
            budget_ms=float(details.get("budget_ms", 0.0)),
            elapsed_ms=float(details.get("elapsed_ms", 0.0)),
            source_name=details.get("source_name"),
            per_source_rows=details.get("per_source_rows"),
        )
    if code == "ServerOverloadedError":
        return ServerOverloadedError(
            tenant=details.get("tenant", "?"),
            queued=int(details.get("queued", 0)),
            limit=int(details.get("limit", 0)),
            message=message,
        )
    if code == "SourceError":
        return SourceError(
            source_name=details.get("source_name", "?"),
            message=message,
            retryable=bool(payload.get("retryable", True)),
        )
    cls = _ERROR_CLASSES.get(code, GISError)
    exc = cls(message)
    return exc


# ---------------------------------------------------------------------------
# result payloads
# ---------------------------------------------------------------------------


def encode_result(result: Any, rows: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
    """A QueryResult as a response payload.

    ``rows`` overrides the encoded row window (FETCH paging); metadata —
    including the partial-result contract (``complete`` +
    ``excluded_sources``) — always reflects the full result, so degraded
    answers are visible on every page.
    """
    window = result.rows if rows is None else rows
    net = result.metrics.network
    return {
        "columns": list(result.column_names),
        "rows": [encode_row(row) for row in window],
        "row_count": len(result.rows),
        "complete": bool(result.complete),
        "excluded_sources": dict(result.excluded_sources),
        "metrics": {
            "wall_ms": result.metrics.wall_ms,
            "planning_ms": result.metrics.planning_ms,
            "network_ms": net.network_ms,
            "rows_shipped": net.rows_shipped,
            "messages": net.messages,
            "plan_cache_hit": bool(getattr(net, "plan_cache_hit", False)),
        },
    }
