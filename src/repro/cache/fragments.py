"""The semantic fragment cache: complete fragment results, reusable.

Entries are keyed by the fragment's canonical plan text (which embeds the
target source — see :mod:`repro.cache.keys`) and store the *complete*
page stream a fragment produced, as :class:`~repro.core.pages.Page`
objects with the original page boundaries preserved. Each stored page
owns copies of its column lists: the pages that went downstream may have
their column vectors aliased by operators. A probe serves a fragment in
two ways:

* **exact hit** — the canonical key matches; the stored pages replay
  verbatim.
* **subsumed hit** — no exact entry, but a cached single-scan fragment
  over the same native table provably contains every row the new
  fragment selects (:func:`~repro.cache.keys.shape_contains`). The
  stored pages replay through a mediator-side *residual* — the new
  fragment's full predicate compiled as a vectorized page predicate
  against the cached page layout — plus a column pick onto the new
  fragment's output order.

Replayed pages bypass the network entirely: nothing is charged, network
counters honestly report zero shipped bytes for the fragment, and the
pages feed the same ``split_batches`` step a cold fetch would, so rows
*and dtypes* are bit-identical to cold execution.

Admission is strict — the PR 5 invariant "partial results are never
cached" is enforced structurally:

* the fill wrapper only admits when the underlying page stream finishes
  cleanly; any exception (source failure, deadline, early consumer
  abandonment) aborts collection;
* the entry is stamped with the per-source epoch snapshot taken when the
  query's execution context was built (strictly before any fetch), and
  admission re-checks that epoch under the cache lock — a source bump
  mid-flight means the collected pages may straddle the change, so they
  are dropped (``rejected_stale``);
* lookups ignore (and lazily delete) entries whose epoch is no longer
  current.

The cache is byte-budgeted LRU: entry sizes use the same wire sizer the
network accounting uses, so "bytes cached" and "bytes saved" speak the
same units as ``bytes_shipped``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.expressions import compile_batch_predicate
from ..core.pages import Page
from .keys import (
    FragmentShape,
    canonical_fragment_key,
    fragment_shape,
    residual_plan,
    shape_contains,
)

__all__ = ["FragmentCache", "FragmentCacheEntry"]


class FragmentCacheEntry:
    """One cached fragment result."""

    __slots__ = ("key", "source", "shape", "pages", "bytes", "epoch", "hits")

    def __init__(
        self,
        key: str,
        source: str,
        shape: Optional[FragmentShape],
        pages: List[Page],
        nbytes: int,
        epoch: int,
    ) -> None:
        self.key = key
        self.source = source
        self.shape = shape
        self.pages = pages
        self.bytes = nbytes
        self.epoch = epoch
        self.hits = 0


class _Decision:
    """What the executor should do for one exchange probe."""

    __slots__ = ("replay", "fill")

    def __init__(self, replay=None, fill=None) -> None:
        self.replay = replay
        self.fill = fill


class FragmentCache:
    """Thread-safe byte-budgeted LRU of complete fragment results.

    ``budget_bytes`` 0 disables the cache entirely (every probe is a
    cheap no-op); the mediator then never attaches it to execution
    contexts.
    """

    def __init__(self, budget_bytes: int, epochs) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"fragment cache budget must be >= 0 (got {budget_bytes})"
            )
        self.budget_bytes = budget_bytes
        self.epochs = epochs
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, FragmentCacheEntry]" = OrderedDict()
        self._by_table: Dict[Tuple[str, str], Set[str]] = {}
        self._bytes = 0
        self.hits = 0
        self.subsumed_hits = 0
        self.misses = 0
        self.admissions = 0
        self.evictions = 0
        self.rejected_stale = 0
        self.rejected_oversize = 0

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    # -- probes --------------------------------------------------------------

    def begin(self, exchange, ctx, allow_replay: bool = True) -> Optional[_Decision]:
        """Decide how one exchange interacts with the cache.

        Returns a decision whose ``replay`` (when set) is the page
        iterator to use *instead of* fetching, and whose ``fill`` (when
        set) must wrap the fetched page iterator to collect an entry.
        ``allow_replay=False`` (a prestarted exchange whose worker is
        already fetching) restricts the interaction to filling.
        """
        if not self.enabled:
            return None
        fragment = exchange.fragment
        key = canonical_fragment_key(fragment)
        if key is None:
            return None
        source = fragment.source_name.lower()
        epoch = self.epochs.current(source)
        shape = fragment_shape(fragment)
        entry: Optional[FragmentCacheEntry] = None
        residual = None
        if allow_replay:
            with self._lock:
                entry = self._live_entry(key, epoch)
                if entry is None and shape is not None:
                    entry = self._find_superset(shape, epoch)
                    if entry is not None:
                        residual = residual_plan(entry.shape, shape)
                if entry is not None:
                    self._entries.move_to_end(entry.key)
                    entry.hits += 1
                    if residual is None:
                        self.hits += 1
                    else:
                        self.subsumed_hits += 1
                else:
                    self.misses += 1
        if entry is not None:
            ctx.add_metric("fragment_cache_hits", 1)
            span = ctx.trace_child(
                f"cache:{source}", "cache",
                hit=True, subsumed=residual is not None, key=key,
            )
            span.end()
            return _Decision(
                replay=self._replay(entry, residual, exchange, ctx)
            )
        if allow_replay:
            ctx.add_metric("fragment_cache_misses", 1)
        # Fill under the epoch snapshot taken at context construction —
        # strictly before any fetch began — so a bump that lands anywhere
        # mid-query invalidates the admission.
        admit_epoch = ctx.epoch_snapshot.get(source, 0)
        sizer = exchange._sizer
        return _Decision(
            fill=lambda pages: self._fill(
                pages, key, source, shape, admit_epoch, sizer
            )
        )

    def would_serve(self, fragment) -> bool:
        """Peek (no statistics, no replay): could this fragment be served
        from cache right now? Used to keep the scheduler from prestarting
        a fetch the cache is about to answer."""
        if not self.enabled:
            return False
        key = canonical_fragment_key(fragment)
        if key is None:
            return False
        epoch = self.epochs.current(fragment.source_name.lower())
        with self._lock:
            if self._live_entry(key, epoch) is not None:
                return True
            shape = fragment_shape(fragment)
            return (
                shape is not None
                and self._find_superset(shape, epoch) is not None
            )

    # -- replay / fill -------------------------------------------------------

    def _replay(
        self, entry: FragmentCacheEntry, residual, exchange, ctx
    ) -> Iterator[Page]:
        """Yield the entry's pages (through the residual when subsumed),
        crediting ``fragment_cache_bytes_saved`` with the wire bytes a
        cold execution of the probing fragment would have shipped."""
        sizer = exchange._sizer
        if residual is None:
            for page in entry.pages:
                ctx.add_metric("fragment_cache_bytes_saved", sizer(page))
                yield page
            return
        predicate, layout, projection = residual
        keep = (
            compile_batch_predicate(predicate, layout)
            if predicate is not None
            else None
        )
        identity = projection == list(range(len(entry.shape.columns)))
        for page in entry.pages:
            if keep is not None:
                page = keep(page)
            if not identity:
                page = Page([page.columns[i] for i in projection], page.num_rows)
            if page:
                ctx.add_metric("fragment_cache_bytes_saved", sizer(page))
                yield page

    def _fill(
        self,
        pages: Iterable[Page],
        key: str,
        source: str,
        shape: Optional[FragmentShape],
        admit_epoch: int,
        sizer,
    ) -> Iterator[Page]:
        """Pass pages through, collecting a candidate entry; admit only on
        clean exhaustion of the underlying stream."""
        collected: Optional[List[Page]] = []
        nbytes = 0
        for page in pages:
            if collected is not None:
                nbytes += sizer(page)
                if nbytes > self.budget_bytes:
                    collected = None  # larger than the whole budget
                else:
                    collected.append(
                        Page([list(c) for c in page.columns], page.num_rows)
                    )
            yield page
        if collected is None:
            with self._lock:
                self.rejected_oversize += 1
            return
        self._admit(key, source, shape, collected, nbytes, admit_epoch)

    def _admit(
        self,
        key: str,
        source: str,
        shape: Optional[FragmentShape],
        pages: List[Page],
        nbytes: int,
        epoch: int,
    ) -> None:
        with self._lock:
            if self.epochs.current(source) != epoch:
                # The source moved mid-flight; the pages may straddle the
                # change — never admissible.
                self.rejected_stale += 1
                return
            if key in self._entries:
                self._remove(key)
            entry = FragmentCacheEntry(key, source, shape, pages, nbytes, epoch)
            self._entries[key] = entry
            self._bytes += nbytes
            if shape is not None:
                self._by_table.setdefault(shape.table_key, set()).add(key)
            self.admissions += 1
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                victim = next(iter(self._entries))
                if victim == key:
                    break
                self._remove(victim)
                self.evictions += 1

    # -- internals (call with the lock held) ---------------------------------

    def _live_entry(self, key: str, epoch: int) -> Optional[FragmentCacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.epoch != epoch:
            self._remove(key)
            return None
        return entry

    def _find_superset(
        self, shape: FragmentShape, epoch: int
    ) -> Optional[FragmentCacheEntry]:
        keys = self._by_table.get(shape.table_key)
        if not keys:
            return None
        stale: List[str] = []
        found: Optional[FragmentCacheEntry] = None
        for key in reversed(self._entries):  # most recently used first
            if key not in keys:
                continue
            entry = self._entries[key]
            if entry.epoch != epoch:
                stale.append(key)
                continue
            if shape_contains(entry.shape, shape):
                found = entry
                break
        for key in stale:
            self._remove(key)
        return found

    def _remove(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.bytes
        if entry.shape is not None:
            keys = self._by_table.get(entry.shape.table_key)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[entry.shape.table_key]

    # -- maintenance ---------------------------------------------------------

    def evict_source(self, source: str) -> int:
        """Eagerly drop every entry filled from one source.

        Epoch bumps invalidate lazily (entries die on next lookup); this
        is the stronger form for ``unregister_source``, where the entries'
        memory should not outlive the source itself. Returns the count.
        """
        key = source.lower()
        with self._lock:
            victims = [k for k, e in self._entries.items() if e.source == key]
            for k in victims:
                self._remove(k)
            return len(victims)

    def evict_table(self, source: str, remote_table: str) -> int:
        """Eagerly drop the entries cached for one native table (used when
        a table is dropped or altered). Returns the count."""
        table_key = (source.lower(), remote_table.lower())
        with self._lock:
            victims = list(self._by_table.get(table_key, ()))
            for k in victims:
                self._remove(k)
            return len(victims)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._by_table.clear()
            self._bytes = 0
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """A consistent snapshot of the cache's effectiveness counters."""
        with self._lock:
            lookups = self.hits + self.subsumed_hits + self.misses
            return {
                "budget_bytes": self.budget_bytes,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "subsumed_hits": self.subsumed_hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "evictions": self.evictions,
                "rejected_stale": self.rejected_stale,
                "rejected_oversize": self.rejected_oversize,
                "hit_rate": (
                    (self.hits + self.subsumed_hits) / lookups if lookups else 0.0
                ),
            }
