"""Unified catalog versions: the single invalidation authority.

Every cached artifact in the mediator — prepared plans, semantic
fragment-cache entries, materialized-view snapshots — keys its freshness
off state tracked here. One clock, four granularities:

* **source epochs** — a monotone counter per component system, bumped by
  any event the mediator can observe for that source (table or replica
  registration, ``ANALYZE``, schema alteration, explicit
  ``notify_source_changed``). This is the clock the fragment cache and
  materialized views compare against; it subsumes the old
  ``repro.cache.epochs.SourceEpochs`` (that module is gone — the cache
  package re-exports this class under the old name).
* **schema versions** — per global table, bumped when the table's schema
  or mapping changes (``alter_table``, replica promotion).
* **statistics versions** — per global table, bumped by ``ANALYZE``.
* **catalog epoch** — one global counter bumped by *every* catalog
  mutation; the plan cache invalidates off it through the mediator's
  event subscription.

Invalidation stays lazy everywhere: nothing walks cache entries on a
bump; an entry remembers the version it was filled under and dies the
next time it is looked up against a newer one.

For bounded-stale reads (``WITH STALENESS <ms>``) the tracker also
records *when* each source bump happened, so a materialized view can
answer "how long ago did this source first move past my snapshot?" — the
staleness window anchors at the first invalidating bump, not the most
recent one.

Versions persist: :meth:`state` captures the whole vector for the
catalog journal and :meth:`restore` merges a journaled vector back in,
taking the maximum per counter so versions are **monotone across
restarts** — recovered cache state can never be mistaken for fresh.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

#: Bump timestamps remembered per source; older bumps age out (a view
#: whose snapshot predates the window is simply treated as unbounded-old).
HISTORY_LIMIT = 64


class CatalogVersions:
    """Thread-safe catalog version vector with bump-time history.

    A source or table that has never been bumped is at version 0, so
    snapshots taken before an object is first touched still compare
    correctly.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._epochs: Dict[str, int] = {}
        self._history: Dict[str, Deque[Tuple[int, float]]] = {}
        self._schema_versions: Dict[str, int] = {}
        self._stats_versions: Dict[str, int] = {}
        self._catalog_epoch = 0
        self.bumps = 0

    # -- source epochs (the SourceEpochs-compatible surface) -----------------

    def current(self, source: str) -> int:
        """The source's current epoch (0 if never bumped)."""
        with self._lock:
            return self._epochs.get(source.lower(), 0)

    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of every known source's epoch.

        Sources absent from the snapshot are implicitly at epoch 0 —
        compare with ``snapshot.get(source, 0)``.
        """
        with self._lock:
            return dict(self._epochs)

    def bump(self, source: str) -> int:
        """Advance one source's epoch; returns the new value."""
        with self._lock:
            return self._bump_locked(source.lower(), self._clock())

    def bump_all(self) -> None:
        """Advance every known source (conservative catalog-wide change)."""
        with self._lock:
            now = self._clock()
            for key in list(self._epochs):
                self._bump_locked(key, now)

    def first_bump_after(self, source: str, snapshot_epoch: int) -> Optional[float]:
        """Clock time of the first bump past ``snapshot_epoch``, or None.

        None means the source has not moved past the snapshot — the
        snapshot is still exactly current. A bump that aged out of the
        bounded history returns 0.0 (infinitely long ago), which errs on
        the side of treating the snapshot as too stale to serve.
        """
        key = source.lower()
        with self._lock:
            if self._epochs.get(key, 0) <= snapshot_epoch:
                return None
            for epoch, at in self._history.get(key, ()):
                if epoch > snapshot_epoch:
                    return at
            return 0.0

    def _bump_locked(self, key: str, now: float) -> int:
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        history = self._history.setdefault(key, deque(maxlen=HISTORY_LIMIT))
        history.append((epoch, now))
        self.bumps += 1
        return epoch

    # -- per-table versions ---------------------------------------------------

    def schema_version(self, table: str) -> int:
        """The table's schema version (0 if never registered/altered)."""
        with self._lock:
            return self._schema_versions.get(table.lower(), 0)

    def bump_schema(self, table: str) -> int:
        """Advance a table's schema version; returns the new value.

        Versions survive a drop: re-registering a name continues its
        counter, so a cached artifact keyed on (name, version) from a
        previous incarnation can never alias the new one.
        """
        key = table.lower()
        with self._lock:
            version = self._schema_versions.get(key, 0) + 1
            self._schema_versions[key] = version
            return version

    def stats_version(self, table: str) -> int:
        """The table's statistics version (0 if never analyzed)."""
        with self._lock:
            return self._stats_versions.get(table.lower(), 0)

    def bump_stats(self, table: str) -> int:
        """Advance a table's statistics version; returns the new value."""
        key = table.lower()
        with self._lock:
            version = self._stats_versions.get(key, 0) + 1
            self._stats_versions[key] = version
            return version

    # -- the global catalog epoch --------------------------------------------

    @property
    def catalog_epoch(self) -> int:
        with self._lock:
            return self._catalog_epoch

    def bump_catalog(self) -> int:
        """Advance the global catalog epoch; returns the new value."""
        with self._lock:
            self._catalog_epoch += 1
            return self._catalog_epoch

    # -- persistence ----------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """The whole version vector as plain JSON-ready data."""
        with self._lock:
            return {
                "catalog_epoch": self._catalog_epoch,
                "sources": dict(self._epochs),
                "schemas": dict(self._schema_versions),
                "statistics": dict(self._stats_versions),
            }

    def restore(self, state: Dict[str, Any]) -> None:
        """Merge a journaled version vector, keeping the maximum per
        counter — the recovered clock is never behind the pre-crash one,
        however many replay-side bumps happened in between."""
        with self._lock:
            self._catalog_epoch = max(
                self._catalog_epoch, int(state.get("catalog_epoch", 0))
            )
            now = self._clock()
            for key, epoch in dict(state.get("sources", {})).items():
                key = key.lower()
                if int(epoch) > self._epochs.get(key, 0):
                    self._epochs[key] = int(epoch)
                    history = self._history.setdefault(
                        key, deque(maxlen=HISTORY_LIMIT)
                    )
                    history.append((int(epoch), now))
            for key, version in dict(state.get("schemas", {})).items():
                key = key.lower()
                self._schema_versions[key] = max(
                    self._schema_versions.get(key, 0), int(version)
                )
            for key, version in dict(state.get("statistics", {})).items():
                key = key.lower()
                self._stats_versions[key] = max(
                    self._stats_versions.get(key, 0), int(version)
                )
