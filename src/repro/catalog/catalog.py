"""The mediator's live global catalog.

Holds three registries, all keyed case-insensitively:

* **sources** — wrapper adapters for component systems;
* **tables** — global base tables (each with a :class:`TableMapping` to its
  source) and integration views (stored as SQL text, expanded at bind time);
* **statistics** — per-table :class:`TableStatistics` gathered by ANALYZE.

The catalog is *live*: it is the system of record for what the federation
looks like right now, and every mutation is versioned and observable.

* :attr:`Catalog.versions` (:class:`~repro.catalog.versions.CatalogVersions`)
  is the single invalidation authority — per-source epochs, per-table
  schema and statistics versions, and a global catalog epoch, all bumped
  here, in the mutation, never by callers.
* Every mutation publishes a typed
  :class:`~repro.catalog.events.CatalogEvent` to subscribers *after* the
  state change commits. The mediator subscribes to drop affected cached
  state; the catalog journal subscribes to persist the operation.

Runtime lifecycle goes beyond build-time registration:
:meth:`unregister_source` detaches a component system mid-flight
(promoting surviving replicas to primaries, dropping tables with no other
copy, and cleaning up dangling replicas), :meth:`alter_table` swaps in a
new schema/mapping, and :meth:`notify_source_changed` advances a source's
epoch when its data moved out of band.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from ..errors import CatalogError, DuplicateObjectError, UnknownObjectError
from . import events as ev
from .events import CatalogEvent
from .mappings import TableMapping
from .schema import TableSchema
from .statistics import TableStatistics
from .versions import CatalogVersions


@dataclass
class CatalogTable:
    """A catalog entry: either a mapped base table or an integration view.

    Exactly one of ``mapping`` / ``view_sql`` is set. Views carry their
    schema too once first bound (the analyzer derives and caches it).

    ``replicas`` lists *additional* copies of a base table on other
    sources; ``mapping`` stays the primary (used by ANALYZE and as the
    default when replica selection is off).
    """

    name: str
    schema: Optional[TableSchema]
    mapping: Optional[TableMapping] = None
    view_sql: Optional[str] = None
    replicas: List[TableMapping] = field(default_factory=list)

    @property
    def is_view(self) -> bool:
        return self.view_sql is not None

    def all_mappings(self) -> List[TableMapping]:
        """Primary mapping plus every replica (empty for views)."""
        if self.mapping is None:
            return []
        return [self.mapping, *self.replicas]


class Catalog:
    """Live registry of sources, global tables, views, and statistics."""

    def __init__(self, versions: Optional[CatalogVersions] = None) -> None:
        self._sources: Dict[str, Any] = {}
        self._source_display: Dict[str, str] = {}
        self._source_specs: Dict[str, Optional[Dict[str, Any]]] = {}
        self._tables: Dict[str, CatalogTable] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        self.versions = versions or CatalogVersions()
        self._subscribers: List[Callable[[CatalogEvent], None]] = []
        self._subscribers_lock = threading.Lock()

    # -- events ---------------------------------------------------------------

    def subscribe(self, callback: Callable[[CatalogEvent], None]) -> None:
        """Register an event subscriber (called after each mutation,
        on the mutating thread, in mutation order)."""
        with self._subscribers_lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[CatalogEvent], None]) -> None:
        with self._subscribers_lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def publish(
        self,
        kind: str,
        name: str = "",
        source: str = "",
        payload: Optional[Dict[str, Any]] = None,
    ) -> CatalogEvent:
        """Bump the catalog epoch and notify subscribers of one event.

        Mutations call this last, after their state change commits. The
        mediator also publishes its own catalog-adjacent events here
        (materialized-view DDL), so the journal sees one ordered stream.
        """
        event = CatalogEvent(
            kind=kind,
            name=name,
            source=source.lower(),
            payload=payload or {},
            catalog_epoch=self.versions.bump_catalog(),
        )
        with self._subscribers_lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)
        return event

    # -- sources -------------------------------------------------------------

    def register_source(
        self, name: str, adapter: Any, spec: Optional[Dict[str, Any]] = None
    ) -> None:
        """Register a component system's wrapper under a federation-unique
        name.

        ``spec`` is the optional declarative connector spec (the
        ``config.py`` source dictionary). It is what the catalog journal
        records, and what recovery uses to reattach the source after a
        restart — a source registered without one is *ephemeral*: fully
        functional, but skipped by recovery.
        """
        key = name.lower()
        if key in self._sources:
            raise DuplicateObjectError(f"source {name!r} is already registered")
        self._sources[key] = adapter
        self._source_display[key] = name
        self._source_specs[key] = dict(spec) if spec is not None else None
        self.publish(
            ev.SOURCE_REGISTERED, name=name, source=name,
            payload={"spec": self._source_specs[key]},
        )

    def unregister_source(self, name: str) -> Dict[str, List[str]]:
        """Detach a component system at runtime, cleaning up everything
        that pointed at it.

        Base tables whose *primary* mapping lives on the source are
        re-pointed at a surviving replica when one exists (promotion —
        the table stays queryable) and dropped otherwise. Replicas on the
        source are dropped from surviving tables, so no dangling replica
        outlives its source. The source's epoch is bumped, so any cached
        state keyed on it dies even if the name is later reused.

        Returns a report of the cascade: ``{"dropped_tables": [...],
        "promoted_tables": [...], "dropped_replicas": [...]}``.
        """
        key = name.lower()
        if key not in self._sources:
            raise UnknownObjectError(f"unknown source: {name!r}")
        display = self._source_display[key]
        report: Dict[str, List[str]] = {
            "dropped_tables": [],
            "promoted_tables": [],
            "dropped_replicas": [],
        }
        for table_key in list(self._tables):
            entry = self._tables.get(table_key)
            if entry is None or entry.mapping is None:
                continue
            survivors = [
                m for m in entry.replicas if m.source.lower() != key
            ]
            lost_replicas = len(entry.replicas) - len(survivors)
            if entry.mapping.source.lower() == key:
                if survivors:
                    # Promote the first surviving replica to primary.
                    entry.mapping = survivors[0]
                    entry.replicas = survivors[1:]
                    self.versions.bump_schema(entry.name)
                    self.versions.bump(entry.mapping.source)
                    report["promoted_tables"].append(entry.name)
                    self.publish(
                        ev.TABLE_ALTERED, name=entry.name,
                        source=entry.mapping.source,
                        payload={
                            "cascade": True, "promoted_from": display,
                            **self._table_payload(entry),
                        },
                    )
                else:
                    del self._tables[table_key]
                    self._statistics.pop(table_key, None)
                    report["dropped_tables"].append(entry.name)
                    self.publish(
                        ev.TABLE_DROPPED, name=entry.name, source=display,
                        payload={
                            "cascade": True,
                            "mapping": entry.mapping.to_dict(),
                        },
                    )
            elif lost_replicas:
                entry.replicas = survivors
                report["dropped_replicas"].extend(
                    [entry.name] * lost_replicas
                )
                self.publish(
                    ev.REPLICA_DROPPED, name=entry.name, source=display,
                    payload={"cascade": True, "count": lost_replicas},
                )
        del self._sources[key]
        del self._source_display[key]
        self._source_specs.pop(key, None)
        self.versions.bump(key)
        self.publish(
            ev.SOURCE_UNREGISTERED, name=display, source=display,
            payload={"report": report},
        )
        return report

    def source(self, name: str) -> Any:
        """Look up a source adapter by name."""
        adapter = self._sources.get(name.lower())
        if adapter is None:
            raise UnknownObjectError(f"unknown source: {name!r}")
        return adapter

    def source_spec(self, name: str) -> Optional[Dict[str, Any]]:
        """The declarative connector spec a source was registered with
        (None for ephemeral, programmatically attached sources)."""
        self.source(name)  # validate
        return self._source_specs.get(name.lower())

    def has_source(self, name: str) -> bool:
        return name.lower() in self._sources

    def source_names(self) -> List[str]:
        """Registered source names in registration order."""
        return list(self._source_display.values())

    def notify_source_changed(self, source: str) -> int:
        """Record that a source's data moved out of band: bump its epoch
        (lazily invalidating fragment-cache entries and materialized
        snapshots built on the old one), stop trusting its tables'
        statistics as exact bounds, and publish the event."""
        self.source(source)  # validate the name
        self.mark_statistics_inexact(source)
        epoch = self.versions.bump(source)
        self.publish(
            ev.SOURCE_CHANGED, name=source, source=source,
            payload={"source_epoch": epoch},
        )
        return epoch

    def mark_statistics_inexact(self, source: str) -> None:
        """Clear ``exact`` on the statistics of every table with a copy
        (primary or replica) on ``source`` until its next ANALYZE.

        No version bump and no event: :meth:`notify_source_changed`
        publishes the change, and journal replay of that event calls this
        so a recovered catalog prunes exactly as before the crash.
        """
        key = source.lower()
        for table_key, entry in self._tables.items():
            statistics = self._statistics.get(table_key)
            if statistics is not None and statistics.exact and any(
                mapping.source.lower() == key for mapping in entry.all_mappings()
            ):
                self._statistics[table_key] = replace(statistics, exact=False)

    # -- tables and views ------------------------------------------------------

    def register_table(
        self, name: str, schema: TableSchema, mapping: TableMapping
    ) -> None:
        """Register a global base table mapped onto one source."""
        key = name.lower()
        if key in self._tables:
            raise DuplicateObjectError(f"table or view {name!r} is already registered")
        if not self.has_source(mapping.source):
            raise UnknownObjectError(
                f"table {name!r} maps to unknown source {mapping.source!r}"
            )
        mapping.validate_against(schema)
        entry = CatalogTable(name=name, schema=schema, mapping=mapping)
        self._tables[key] = entry
        self.versions.bump_schema(name)
        self.versions.bump(mapping.source)
        self.publish(
            ev.TABLE_REGISTERED, name=name, source=mapping.source,
            payload=self._table_payload(entry),
        )

    def alter_table(
        self,
        name: str,
        schema: TableSchema,
        mapping: Optional[TableMapping] = None,
        replicas: Optional[List[TableMapping]] = None,
    ) -> None:
        """Swap in a new schema (and optionally mapping/replicas) for a
        base table — the catalog half of reacting to a source-side schema
        change.

        Statistics gathered under the old schema are dropped (they may
        describe columns that no longer exist); the table's schema
        version and the owning source's epoch advance, so every cached
        plan and fragment dies.
        """
        entry = self.table(name)
        if entry.is_view:
            raise CatalogError(f"cannot alter view {name!r}")
        new_mapping = mapping if mapping is not None else entry.mapping
        assert new_mapping is not None
        if not self.has_source(new_mapping.source):
            raise UnknownObjectError(
                f"table {name!r} maps to unknown source {new_mapping.source!r}"
            )
        new_mapping.validate_against(schema)
        new_replicas = replicas if replicas is not None else entry.replicas
        for replica in new_replicas:
            if not self.has_source(replica.source):
                raise UnknownObjectError(
                    f"replica of {name!r} maps to unknown source "
                    f"{replica.source!r}"
                )
        old_source = entry.mapping.source if entry.mapping else None
        entry.schema = schema
        entry.mapping = new_mapping
        entry.replicas = list(new_replicas)
        self._statistics.pop(name.lower(), None)
        self.versions.bump_schema(name)
        self.versions.bump(new_mapping.source)
        if old_source and old_source.lower() != new_mapping.source.lower():
            # The table moved: fragments cached from the old home die too.
            self.versions.bump(old_source)
        self.publish(
            ev.TABLE_ALTERED, name=entry.name, source=new_mapping.source,
            payload=self._table_payload(entry),
        )

    def add_replica(self, table_name: str, mapping: TableMapping) -> None:
        """Attach an additional physical copy of a base table."""
        entry = self.table(table_name)
        if entry.is_view or entry.schema is None:
            raise CatalogError(f"cannot add a replica to view {table_name!r}")
        if not self.has_source(mapping.source):
            raise UnknownObjectError(
                f"replica of {table_name!r} maps to unknown source "
                f"{mapping.source!r}"
            )
        mapping.validate_against(entry.schema)
        entry.replicas.append(mapping)
        self.versions.bump(mapping.source)
        self.publish(
            ev.REPLICA_ADDED, name=entry.name, source=mapping.source,
            payload={"mapping": mapping.to_dict()},
        )

    def register_view(self, name: str, sql: str) -> None:
        """Register an integration view (GAV) defined by a SQL query.

        The view's schema is derived lazily on first bind; registration only
        checks name uniqueness so views may reference tables registered later.
        """
        key = name.lower()
        if key in self._tables:
            raise DuplicateObjectError(f"table or view {name!r} is already registered")
        self._tables[key] = CatalogTable(name=name, schema=None, view_sql=sql)
        self.publish(ev.VIEW_REGISTERED, name=name, payload={"sql": sql})

    def drop(self, name: str) -> None:
        """Remove a table or view (and its statistics)."""
        key = name.lower()
        entry = self._tables.get(key)
        if entry is None:
            raise UnknownObjectError(f"unknown table or view: {name!r}")
        del self._tables[key]
        self._statistics.pop(key, None)
        if entry.is_view:
            self.publish(ev.VIEW_DROPPED, name=entry.name)
        else:
            assert entry.mapping is not None
            for mapping in entry.all_mappings():
                self.versions.bump(mapping.source)
            self.publish(
                ev.TABLE_DROPPED, name=entry.name,
                source=entry.mapping.source,
                payload={"mapping": entry.mapping.to_dict()},
            )

    def table(self, name: str) -> CatalogTable:
        """Look up a table or view entry by name."""
        entry = self._tables.get(name.lower())
        if entry is None:
            raise UnknownObjectError(f"unknown table or view: {name!r}")
        return entry

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        """All registered table and view names."""
        return [entry.name for entry in self._tables.values()]

    def tables_on_source(self, source_name: str) -> List[CatalogTable]:
        """Base tables mapped onto a given source."""
        key = source_name.lower()
        return [
            entry
            for entry in self._tables.values()
            if entry.mapping is not None and entry.mapping.source.lower() == key
        ]

    def cache_view_schema(self, name: str, schema: TableSchema) -> None:
        """Cache a derived view schema (set by the analyzer on first bind).

        A derived cache, not a semantic change: no version bump, no event.
        """
        self.table(name).schema = schema

    @staticmethod
    def _table_payload(entry: CatalogTable) -> Dict[str, Any]:
        """Serialize a table entry for event payloads / the journal."""
        return {
            "schema": entry.schema.to_dict() if entry.schema else None,
            "mapping": entry.mapping.to_dict() if entry.mapping else None,
            "replicas": [m.to_dict() for m in entry.replicas],
        }

    # -- statistics -----------------------------------------------------------

    def set_statistics(self, table_name: str, statistics: TableStatistics) -> None:
        """Attach statistics to a table (normally via mediator.analyze()).

        Bumps the table's statistics version and the owning source's
        epoch — cost models baked into cached plans are stale now.
        """
        entry = self._tables.get(table_name.lower())
        if entry is None:
            raise UnknownObjectError(f"unknown table or view: {table_name!r}")
        self._statistics[table_name.lower()] = statistics
        self.versions.bump_stats(entry.name)
        source = ""
        if entry.mapping is not None:
            source = entry.mapping.source
            self.versions.bump(source)
        self.publish(
            ev.STATS_UPDATED, name=entry.name, source=source,
            payload={"statistics": statistics.to_dict()},
        )

    def statistics(self, table_name: str) -> Optional[TableStatistics]:
        """Statistics for a table, or None if never analyzed."""
        return self._statistics.get(table_name.lower())

    def clear_statistics(self) -> None:
        """Drop all gathered statistics (used by the stats-ablation bench)."""
        self._statistics.clear()
        self.publish(ev.STATS_CLEARED)
