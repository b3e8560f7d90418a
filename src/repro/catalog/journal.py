"""Catalog persistence: an append-only journal with compacted snapshots.

The journal subscribes to the live catalog's event stream and appends one
JSON line per semantic operation — source/table/view registration and
removal, schema alterations, replica changes, ANALYZE results,
materialized-view DDL. Cascade events (``payload.cascade``) are *not*
journaled: replaying the parent operation re-derives them
deterministically, so persisting both would double-apply the cascade.

Every record carries the full catalog version vector *after* the event,
so recovery can restore a clock that is never behind the pre-crash one
(max-merge in :meth:`~repro.catalog.versions.CatalogVersions.restore`) —
epochs are **monotone across restarts** and recovered cache state can
never be mistaken for fresh.

Every ``snapshot_interval`` records the journal also appends a compacted
**snapshot record** capturing the whole catalog (declarative source
specs, table entries verbatim, statistics, materialized-view definitions,
versions). Recovery replays from the last snapshot forward, then rewrites
the file as one fresh snapshot, so the journal's length is bounded by the
interval, not by the mediator's uptime.

Sources are reattached through their **declarative connector specs** (the
``config.py`` source dictionaries, recorded at registration). A source
registered programmatically without a spec is *ephemeral*: recovery skips
it (and everything mapped onto it) and reports the skip, rather than
guessing at adapter construction.
"""

from __future__ import annotations

import json
import os
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import GISError
from . import events as ev
from .events import CatalogEvent
from .mappings import TableMapping
from .schema import TableSchema
from .statistics import TableStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mediator import GlobalInformationSystem

#: Journal records whose event kind is never persisted.
_UNJOURNALED = frozenset({ev.CATALOG_RECOVERED})

#: Default number of event records between compacted snapshots.
DEFAULT_SNAPSHOT_INTERVAL = 64


class CatalogJournal:
    """Append-only JSONL catalog journal with periodic snapshots.

    Attach one to a mediator (normally via the ``catalog`` config section
    or the mediator's ``catalog_journal_path`` argument); it then records
    every non-cascade catalog event. :meth:`recover` rebuilds a fresh
    mediator's catalog to the exact journaled state.
    """

    def __init__(
        self, path: str, snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL
    ) -> None:
        if snapshot_interval < 1:
            raise GISError(
                f"journal snapshot_interval must be >= 1 (got {snapshot_interval})"
            )
        self.path = path
        self.snapshot_interval = snapshot_interval
        self._lock = threading.Lock()
        self._gis: Optional["GlobalInformationSystem"] = None
        self._suspended = False
        self._seq = 0
        self._last_snapshot_seq = 0
        self._since_snapshot = 0

    # -- recording -------------------------------------------------------------

    def attach(self, gis: "GlobalInformationSystem") -> None:
        """Subscribe to the mediator's catalog and start journaling."""
        self._gis = gis
        gis.catalog.subscribe(self._on_event)

    def _on_event(self, event: CatalogEvent) -> None:
        if self._suspended or event.is_cascade or event.kind in _UNJOURNALED:
            return
        gis = self._gis
        assert gis is not None
        with self._lock:
            self._seq += 1
            record = {
                "seq": self._seq,
                "kind": event.kind,
                "name": event.name,
                "source": event.source,
                "payload": dict(event.payload),
                "versions": gis.catalog.versions.state(),
            }
            self._append(record)
            self._since_snapshot += 1
            if self._since_snapshot >= self.snapshot_interval:
                self._write_snapshot_locked()

    def _append(self, record: Dict[str, Any]) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _write_snapshot_locked(self) -> None:
        gis = self._gis
        assert gis is not None
        self._seq += 1
        self._append(
            {"seq": self._seq, "kind": "snapshot", "state": self._capture(gis)}
        )
        self._last_snapshot_seq = self._seq
        self._since_snapshot = 0

    def checkpoint(self) -> None:
        """Force a snapshot record now (used after recovery compaction)."""
        with self._lock:
            self._write_snapshot_locked()

    def position(self) -> Dict[str, Any]:
        """Where the journal stands (for ``\\catalog`` and the serve op)."""
        with self._lock:
            return {
                "path": self.path,
                "seq": self._seq,
                "last_snapshot_seq": self._last_snapshot_seq,
                "records_since_snapshot": self._since_snapshot,
                "snapshot_interval": self.snapshot_interval,
            }

    # -- snapshot capture ------------------------------------------------------

    @staticmethod
    def _capture(gis: "GlobalInformationSystem") -> Dict[str, Any]:
        """Serialize the whole catalog: everything recovery needs, nothing
        derived (no cache contents, no adapter state)."""
        catalog = gis.catalog
        tables: List[Dict[str, Any]] = []
        statistics: Dict[str, Any] = {}
        for name in catalog.table_names():
            entry = catalog.table(name)
            tables.append(
                {
                    "name": entry.name,
                    "view_sql": entry.view_sql,
                    "schema": entry.schema.to_dict() if entry.schema else None,
                    "mapping": (
                        entry.mapping.to_dict() if entry.mapping else None
                    ),
                    "replicas": [m.to_dict() for m in entry.replicas],
                }
            )
            stats = catalog.statistics(name)
            if stats is not None:
                statistics[entry.name] = stats.to_dict()
        materialized = [
            {
                "name": view.name,
                "sql": view.select_sql,
                "staleness_ms": view.staleness_ms,
            }
            for view in (gis.materialized.get(n) for n in gis.materialized.names())
        ]
        return {
            "sources": [
                {"name": name, "spec": catalog.source_spec(name)}
                for name in catalog.source_names()
            ],
            "tables": tables,
            "statistics": statistics,
            "materialized": materialized,
            "versions": catalog.versions.state(),
        }

    # -- recovery --------------------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Replay the journal into the attached (fresh) mediator.

        Applies the last snapshot, then every event after it, with
        journaling suspended; finally max-merges the journaled version
        vector (epochs stay monotone), publishes ``catalog_recovered``,
        and rewrites the journal as one compacted snapshot.

        Returns a report: records replayed, sources skipped for lack of a
        connector spec, and per-record replay errors (a journal written by
        a newer build never aborts recovery wholesale).
        """
        gis = self._gis
        if gis is None:
            raise GISError("journal is not attached to a mediator")
        report: Dict[str, Any] = {
            "recovered": False,
            "records_replayed": 0,
            "snapshot_used": False,
            "skipped_sources": [],
            "skipped": [],
            "errors": [],
        }
        records = self._read_records(report)
        if not records:
            # Nothing replayable, but a torn first record may still sit at
            # the end of the file: cut it off, or the cold start's first
            # append would land on that torn line and be lost with it.
            self._drop_torn_tail()
            return report
        start = 0
        snapshot: Optional[Dict[str, Any]] = None
        for index in range(len(records) - 1, -1, -1):
            if records[index].get("kind") == "snapshot":
                snapshot = records[index].get("state") or {}
                start = index + 1
                break
        self._suspended = True
        try:
            if snapshot is not None:
                report["snapshot_used"] = True
                self._apply_snapshot(gis, snapshot, report)
            for record in records[start:]:
                try:
                    self._apply_event(gis, record, report)
                except Exception as exc:  # keep replaying past bad records
                    report["errors"].append(
                        f"seq {record.get('seq')}: {exc}"
                    )
                report["records_replayed"] += 1
            last_versions = self._last_versions(records, snapshot)
            if last_versions:
                gis.catalog.versions.restore(last_versions)
        finally:
            self._suspended = False
        gis.catalog.publish(
            ev.CATALOG_RECOVERED,
            payload={
                "records_replayed": report["records_replayed"],
                "skipped_sources": list(report["skipped_sources"]),
            },
        )
        # Compact: the replayed history collapses into one fresh snapshot.
        self._compact()
        report["recovered"] = True
        return report

    def _read_records(self, report: Dict[str, Any]) -> List[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return []
        records: List[Dict[str, Any]] = []
        with open(self.path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A torn final write (crash mid-append) is expected;
                    # anything before it replays fine.
                    report["errors"].append(
                        f"line {line_no}: truncated or corrupt record dropped"
                    )
        return records

    @staticmethod
    def _last_versions(
        records: List[Dict[str, Any]], snapshot: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        for record in reversed(records):
            if record.get("kind") == "snapshot":
                state = record.get("state") or {}
                return state.get("versions")
            if "versions" in record:
                return record["versions"]
        if snapshot is not None:
            return snapshot.get("versions")
        return None

    def _drop_torn_tail(self) -> None:
        """Cut the file back to its last newline, fsynced.

        Only bytes after the last newline go: a torn record is never
        newline-terminated, and every complete line is kept as it was."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r+b") as handle:
            data = handle.read()
            keep = data.rfind(b"\n") + 1
            if keep == len(data):
                return
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    def _compact(self) -> None:
        with self._lock:
            temp = self.path + ".tmp"
            gis = self._gis
            assert gis is not None
            self._seq += 1
            record = {
                "seq": self._seq,
                "kind": "snapshot",
                "state": self._capture(gis),
            }
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, self.path)
            self._last_snapshot_seq = self._seq
            self._since_snapshot = 0

    # -- replay application ----------------------------------------------------

    def _attach_source(
        self,
        gis: "GlobalInformationSystem",
        name: str,
        spec: Optional[Dict[str, Any]],
        report: Dict[str, Any],
    ) -> bool:
        """Rebuild one source from its declarative spec; False if skipped."""
        if gis.catalog.has_source(name):
            return True
        if spec is None:
            report["skipped_sources"].append(name)
            return False
        # Imported lazily: config imports the mediator, which imports this
        # package — a module-level import would cycle.
        from ..config import _build_link, _build_source

        adapter = _build_source(name, spec)
        gis.register_source(
            name, adapter, link=_build_link(spec.get("link")), spec=spec
        )
        return True

    def _restore_table(
        self,
        gis: "GlobalInformationSystem",
        entry: Dict[str, Any],
        report: Dict[str, Any],
    ) -> None:
        """Re-register one journaled table/view entry verbatim (no adapter
        re-derivation: the journaled schema *is* the pre-crash schema)."""
        name = entry["name"]
        catalog = gis.catalog
        if catalog.has_table(name):
            catalog.drop(name)
        if entry.get("view_sql") is not None:
            catalog.register_view(name, entry["view_sql"])
            return
        mapping = TableMapping.from_dict(entry["mapping"])
        if not catalog.has_source(mapping.source):
            report["skipped"].append(f"table {name} (source {mapping.source})")
            return
        catalog.register_table(
            name, TableSchema.from_dict(entry["schema"]), mapping
        )
        for replica in entry.get("replicas", []):
            replica_mapping = TableMapping.from_dict(replica)
            if catalog.has_source(replica_mapping.source):
                catalog.add_replica(name, replica_mapping)
            else:
                report["skipped"].append(
                    f"replica {name}@{replica_mapping.source}"
                )

    def _apply_snapshot(
        self,
        gis: "GlobalInformationSystem",
        state: Dict[str, Any],
        report: Dict[str, Any],
    ) -> None:
        for source in state.get("sources", []):
            self._attach_source(gis, source["name"], source.get("spec"), report)
        for entry in state.get("tables", []):
            self._restore_table(gis, entry, report)
        for name, stats in dict(state.get("statistics", {})).items():
            if gis.catalog.has_table(name):
                gis.catalog.set_statistics(
                    name, TableStatistics.from_dict(stats)
                )
        for view in state.get("materialized", []):
            self._restore_materialized(gis, view, report)

    @staticmethod
    def _restore_materialized(
        gis: "GlobalInformationSystem",
        view: Dict[str, Any],
        report: Dict[str, Any],
    ) -> None:
        """Re-create a materialized view (re-executes its SELECT — the
        snapshot rows themselves are data, not catalog, and rebuild from
        the recovered sources)."""
        name = view["name"]
        # create_materialized_view registers the backing integration view
        # itself; a replayed VIEW_REGISTERED may already have done so.
        if gis.catalog.has_table(name) and not gis.materialized.has(name):
            gis.catalog.drop(name)
        if gis.materialized.has(name):
            return
        try:
            gis.create_materialized_view(
                name, view["sql"], staleness_ms=float(view.get("staleness_ms", 0.0))
            )
        except Exception as exc:
            report["skipped"].append(f"materialized view {name} ({exc})")

    def _apply_event(
        self,
        gis: "GlobalInformationSystem",
        record: Dict[str, Any],
        report: Dict[str, Any],
    ) -> None:
        kind = record.get("kind")
        name = record.get("name", "")
        payload = record.get("payload", {}) or {}
        catalog = gis.catalog
        if kind == ev.SOURCE_REGISTERED:
            self._attach_source(gis, name, payload.get("spec"), report)
        elif kind == ev.SOURCE_UNREGISTERED:
            if catalog.has_source(name):
                gis.unregister_source(name)
        elif kind == ev.SOURCE_CHANGED:
            # The version-vector restore at the end of recovery carries the
            # epoch bump; the statistics lose exactness as they did live.
            if catalog.has_source(name):
                catalog.mark_statistics_inexact(name)
        elif kind in (ev.TABLE_REGISTERED, ev.TABLE_ALTERED):
            self._restore_table(
                gis,
                {
                    "name": name,
                    "view_sql": None,
                    "schema": payload.get("schema"),
                    "mapping": payload.get("mapping"),
                    "replicas": payload.get("replicas", []),
                },
                report,
            )
        elif kind in (ev.TABLE_DROPPED, ev.VIEW_DROPPED):
            if catalog.has_table(name):
                catalog.drop(name)
        elif kind == ev.VIEW_REGISTERED:
            if not catalog.has_table(name):
                catalog.register_view(name, payload["sql"])
        elif kind == ev.REPLICA_ADDED:
            mapping = TableMapping.from_dict(payload["mapping"])
            if not catalog.has_table(name):
                report["skipped"].append(f"replica {name}@{mapping.source}")
            elif catalog.has_source(mapping.source):
                already = any(
                    m.source.lower() == mapping.source.lower()
                    and m.remote_table == mapping.remote_table
                    for m in catalog.table(name).replicas
                )
                if not already:
                    catalog.add_replica(name, mapping)
            else:
                report["skipped"].append(f"replica {name}@{mapping.source}")
        elif kind == ev.STATS_UPDATED:
            if catalog.has_table(name):
                catalog.set_statistics(
                    name, TableStatistics.from_dict(payload["statistics"])
                )
        elif kind == ev.STATS_CLEARED:
            catalog.clear_statistics()
        elif kind == ev.MATERIALIZED_CREATED:
            self._restore_materialized(
                gis,
                {
                    "name": name,
                    "sql": payload["sql"],
                    "staleness_ms": payload.get("staleness_ms", 0.0),
                },
                report,
            )
        elif kind == ev.MATERIALIZED_DROPPED:
            if gis.materialized.has(name):
                gis.drop_materialized_view(name)
            elif catalog.has_table(name):
                catalog.drop(name)
        # Unknown kinds (a journal from a newer build) are ignored.
