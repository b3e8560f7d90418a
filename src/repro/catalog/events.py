"""Typed catalog events: the notification stream every layer reacts to.

Each mutation of the live catalog commits its state change, bumps the
relevant :class:`~repro.catalog.versions.CatalogVersions` counters, and
then publishes one :class:`CatalogEvent` to every subscriber. Subscribers
react by dropping exactly the affected cached state: the mediator
invalidates the plan cache, evicts the dead source's fragment-cache entries,
forgets its circuit breaker, and the catalog journal appends the event as
its persistence record.

Events fire *after* the mutation is visible, on the mutating thread, in
mutation order. Cascade events (payload ``cascade: true``) describe side
effects of a parent operation — e.g. the tables dropped by
``unregister_source`` — and are skipped by the journal because replaying
the parent op re-derives them deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

# -- event kinds -------------------------------------------------------------

SOURCE_REGISTERED = "source_registered"
SOURCE_UNREGISTERED = "source_unregistered"
SOURCE_CHANGED = "source_changed"
TABLE_REGISTERED = "table_registered"
TABLE_ALTERED = "table_altered"
TABLE_DROPPED = "table_dropped"
VIEW_REGISTERED = "view_registered"
VIEW_DROPPED = "view_dropped"
REPLICA_ADDED = "replica_added"
REPLICA_DROPPED = "replica_dropped"
STATS_UPDATED = "stats_updated"
STATS_CLEARED = "stats_cleared"
MATERIALIZED_CREATED = "materialized_created"
MATERIALIZED_DROPPED = "materialized_dropped"
CATALOG_RECOVERED = "catalog_recovered"

ALL_KINDS = (
    SOURCE_REGISTERED,
    SOURCE_UNREGISTERED,
    SOURCE_CHANGED,
    TABLE_REGISTERED,
    TABLE_ALTERED,
    TABLE_DROPPED,
    VIEW_REGISTERED,
    VIEW_DROPPED,
    REPLICA_ADDED,
    REPLICA_DROPPED,
    STATS_UPDATED,
    STATS_CLEARED,
    MATERIALIZED_CREATED,
    MATERIALIZED_DROPPED,
    CATALOG_RECOVERED,
)


@dataclass(frozen=True)
class CatalogEvent:
    """One catalog state change, as published to subscribers.

    ``name`` is the affected object (table, view, or source name as the
    operator spelled it); ``source`` is the owning component system,
    lower-cased, when the event is source-scoped. ``payload`` carries the
    event's JSON-ready details (serialized schema/mapping/spec/stats —
    everything the journal needs to replay the operation).
    ``catalog_epoch`` is the global epoch *after* the mutation.
    """

    kind: str
    name: str = ""
    source: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)
    catalog_epoch: int = 0

    @property
    def is_cascade(self) -> bool:
        """True for side-effect events implied by a parent operation."""
        return bool(self.payload.get("cascade"))
