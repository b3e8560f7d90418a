"""The mediator facade: a Global Information System instance.

:class:`GlobalInformationSystem` ties the pieces together: the catalog of
sources/tables/views, the simulated network, the planner, and execution.
This is the class downstream users interact with::

    gis = GlobalInformationSystem()
    gis.register_source("erp", SQLiteSource("erp"), link=NetworkLink(30.0, 2e6))
    gis.register_table("orders", source="erp")
    gis.create_view("big_orders", "SELECT * FROM orders WHERE total > 1000")
    gis.analyze()
    result = gis.query("SELECT COUNT(*) FROM big_orders")
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from datetime import date
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cache import FragmentCache, MaterializedViewRegistry
from ..catalog import events as catalog_events
from ..catalog.catalog import Catalog
from ..catalog.events import CatalogEvent
from ..catalog.journal import CatalogJournal
from ..catalog.mappings import TableMapping
from ..catalog.schema import Column, TableSchema
from ..catalog.statistics import DEFAULT_HISTOGRAM_BUCKETS, TableStatistics
from ..datatypes import DataType
from ..errors import CatalogError, ExecutionError, PlanError, UnknownObjectError
from ..obs import Observability
from ..sources.base import Adapter
from ..sources.faults import FaultInjector, FaultPlan
from ..sources.network import NetworkLink, SimulatedNetwork
from ..sql.parser import UtilityStatement, parse_select, parse_utility
from .analyzer import Analyzer
from .health import SourceHealthRegistry
from .logical import MaterializedRowsOp, ScanOp
from .physical import (
    ExchangeExec,
    ExecutionContext,
    ExecutionMetrics,
    OperatorProfile,
    PhysicalOperator,
    profile_operators,
)
from .planner import PlannedQuery, Planner, PlannerOptions
from .prepared import (
    ParameterizedStatement,
    PlanCache,
    PreparedPlan,
    bind_statement_values,
    parameterize,
)
from .result import QueryMetrics, QueryResult
from .scheduler import CircuitBreakerRegistry, Deadline


class GlobalInformationSystem:
    """A mediator over autonomous, heterogeneous component systems."""

    def __init__(
        self,
        network: Optional[SimulatedNetwork] = None,
        options: Optional[PlannerOptions] = None,
        fragment_retries: int = 0,
        observability: Optional[Observability] = None,
        faults: Optional[FaultPlan] = None,
        plan_cache_size: int = 0,
        fragment_cache_bytes: int = 0,
        catalog_journal_path: Optional[str] = None,
        catalog_snapshot_interval: int = 64,
        catalog_recover: bool = False,
    ) -> None:
        """Create a mediator.

        ``fragment_retries`` lets exchanges re-issue a fragment after a
        transient :class:`~repro.errors.SourceError` (only before any rows
        arrived). Finished results are never cached: sources are
        autonomous, and the fragment cache below already replays warm
        fragments behind their source epochs.

        ``plan_cache_size`` > 0 enables the plan-shape cache: queries that
        differ only in literal values share one optimized plan (see
        :mod:`repro.core.prepared`), skipping parse-to-plan after the first
        execution of a shape. Every catalog change invalidates it (see
        :meth:`_on_catalog_event`).

        Scheduling knobs (parallel fragments, timeouts, backoff, circuit
        breakers) live on :class:`PlannerOptions`; the mediator owns the
        per-source breaker registry (``self.breakers``) so breaker state
        persists across queries. The mediator is safe to query from
        multiple threads.

        ``observability`` bundles the tracer, metrics registry, and
        slow-query log (see :class:`repro.obs.Observability`); omitted, one
        is created with everything off, so instrumentation costs nothing
        until armed.

        ``faults`` arms a mediator-level
        :class:`~repro.sources.faults.FaultInjector` whose per-source state
        persists across queries (so recovery-after-K scripts span a
        session); a per-query plan on ``PlannerOptions.faults`` overrides
        it with a fresh injector per execution.

        ``fragment_cache_bytes`` > 0 arms the semantic fragment cache (see
        :mod:`repro.cache`): complete pushed fragment results are kept
        under a byte-budgeted LRU and replayed — on exact canonical-plan
        match or predicate subsumption — instead of re-fetching, shipping
        zero bytes. Invalidation is per-source-epoch: catalog changes and
        :meth:`notify_source_changed` bump the clock and entries die
        lazily.

        ``catalog_journal_path`` arms catalog persistence: every catalog
        operation appends to an append-only JSONL journal (with a
        compacted snapshot record every ``catalog_snapshot_interval``
        operations). With ``catalog_recover`` the journal is replayed
        into this fresh mediator first — sources reattach from their
        declarative connector specs and epochs stay monotone across the
        restart (see :mod:`repro.catalog.journal`); the replay report
        lands on ``self.catalog_recovery``.
        """
        self.catalog = Catalog()
        self.network = network or SimulatedNetwork()
        self.planner = Planner(
            self.catalog, self.network, options,
            eager_aggregation=fragment_cache_bytes <= 0,
        )
        self.fragment_retries = fragment_retries
        self.breakers = CircuitBreakerRegistry()
        # Per-source latency quantiles / error rates feeding adaptive
        # timeouts, hedge delays, and health-aware routing; like breakers,
        # it persists across queries and dies per-source on unregister.
        self.health = SourceHealthRegistry()
        self.obs = observability or Observability()
        self.fault_injector = FaultInjector(faults) if faults is not None else None
        self.plan_cache = PlanCache(plan_cache_size)
        self.fragment_cache = FragmentCache(
            fragment_cache_bytes, self.catalog.versions
        )
        self.materialized = MaterializedViewRegistry(self.catalog.versions)
        # The analyzer consults catalog.materialized at bind time (duck
        # attribute: avoids a core -> cache import cycle in the catalog).
        self.catalog.materialized = self.materialized
        # React to catalog changes before the journal persists them, so a
        # journaled operation is never observable with stale caches.
        self.catalog.subscribe(self._on_catalog_event)
        self.catalog_journal: Optional[CatalogJournal] = None
        self.catalog_recovery: Optional[Dict[str, Any]] = None
        if catalog_journal_path is not None:
            self.catalog_journal = CatalogJournal(
                catalog_journal_path, catalog_snapshot_interval
            )
            self.catalog_journal.attach(self)
            if catalog_recover:
                self.catalog_recovery = self.catalog_journal.recover()

    @property
    def source_epochs(self):
        """The per-source epoch clock — now the catalog's version tracker
        (kept under the historical name for callers and tests)."""
        return self.catalog.versions

    def _on_catalog_event(self, event: CatalogEvent) -> None:
        """React to one catalog mutation: drop exactly the cached state
        the event invalidates.

        Epoch-keyed caches (fragments, materialized snapshots) die lazily
        off the version bumps the catalog already made; this hook handles
        the eager parts — the plan cache (any catalog change can reshape
        plans) and, on source removal, state whose memory should
        not outlive the source.
        """
        if event.kind == catalog_events.SOURCE_UNREGISTERED:
            self.fragment_cache.evict_source(event.source)
            self.breakers.remove(event.source)
            self.health.remove(event.source)
            self.network.remove_link(event.source)
        elif event.kind in (
            catalog_events.TABLE_DROPPED,
            catalog_events.TABLE_ALTERED,
        ):
            mapping = event.payload.get("mapping")
            if mapping:
                self.fragment_cache.evict_table(
                    mapping["source"], mapping["remote_table"]
                )
        self.plan_cache.invalidate()

    # -- federation configuration ------------------------------------------------

    def register_source(
        self,
        name: str,
        adapter: Adapter,
        link: Optional[NetworkLink] = None,
        spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Attach a component system under a federation-unique name.

        ``spec`` is the declarative connector spec (the ``config.py``
        source dictionary); when given, the catalog journal can reattach
        the source after a restart. Programmatic registrations without
        one still work — they are just skipped by recovery.
        """
        if link is not None:
            self.network.set_link(name, link)
        self.catalog.register_source(name, adapter, spec=spec)

    def unregister_source(self, name: str) -> Dict[str, List[str]]:
        """Detach a component system at runtime.

        The catalog cascades (replicas on the source dropped everywhere,
        tables re-pointed at a surviving replica or dropped — see
        :meth:`repro.catalog.catalog.Catalog.unregister_source`), and the
        mediator's event hook evicts the source's fragment-cache entries,
        forgets its circuit breaker, and drops its network link. Queries
        already in flight see the source fail and degrade through the
        normal partial-results path. Returns the catalog's cascade report.
        """
        return self.catalog.unregister_source(name)

    def register_table(
        self,
        name: str,
        source: str,
        remote_table: Optional[str] = None,
        column_map: Optional[Dict[str, str]] = None,
        schema: Optional[TableSchema] = None,
    ) -> None:
        """Publish a source's native table into the global schema.

        Without an explicit ``schema``, the global schema derives from the
        source's native one: native columns keep their names except those
        mentioned (as values) in ``column_map``, which take the global name
        (the map's key). Types always come from the native declaration.
        """
        adapter: Adapter = self.catalog.source(source)
        native_name = remote_table or name
        resolved = self._find_native_table(adapter, native_name)
        if resolved is None:
            raise UnknownObjectError(
                f"source {source!r} has no table {native_name!r}"
            )
        native_key, native_schema = resolved
        mapping = TableMapping(
            source=source,
            remote_table=native_key,
            column_map=dict(column_map or {}),
        )
        if schema is None:
            reverse = {v.lower(): k for k, v in (column_map or {}).items()}
            columns = [
                Column(reverse.get(c.name.lower(), c.name), c.dtype)
                for c in native_schema.columns
            ]
            schema = TableSchema(name, columns)
        else:
            # Validate that every mapped global column lands on a native one.
            for column in schema.columns:
                native = mapping.remote_column(column.name)
                if not native_schema.has_column(native):
                    raise CatalogError(
                        f"global column {column.name!r} maps to missing native "
                        f"column {native!r} on {source}.{native_schema.name}"
                    )
        self.catalog.register_table(name, schema, mapping)

    def register_replica(
        self,
        name: str,
        source: str,
        remote_table: Optional[str] = None,
        column_map: Optional[Dict[str, str]] = None,
    ) -> None:
        """Declare an additional copy of a registered table on another source.

        The replica must expose (under the ``column_map`` renames) every
        column of the table's global schema. The planner's replica selector
        then picks the cheapest copy per query; ANALYZE keeps using the
        primary.
        """
        entry = self.catalog.table(name)
        if entry.schema is None or entry.mapping is None:
            raise CatalogError(f"cannot add a replica to view {name!r}")
        adapter: Adapter = self.catalog.source(source)
        native_name = remote_table or name
        resolved = self._find_native_table(adapter, native_name)
        if resolved is None:
            raise UnknownObjectError(
                f"source {source!r} has no table {native_name!r}"
            )
        native_key, native_schema = resolved
        mapping = TableMapping(
            source=source, remote_table=native_key, column_map=dict(column_map or {})
        )
        for column in entry.schema.columns:
            native = mapping.remote_column(column.name)
            if not native_schema.has_column(native):
                raise CatalogError(
                    f"replica of {name!r} on {source!r} lacks column "
                    f"{native!r} (for global {column.name!r})"
                )
        self.catalog.add_replica(name, mapping)

    def alter_table(
        self,
        name: str,
        remote_table: Optional[str] = None,
        column_map: Optional[Dict[str, str]] = None,
        schema: Optional[TableSchema] = None,
    ) -> Dict[str, List[str]]:
        """Re-derive a table's global schema after a source-side change.

        The source's *current* native schema becomes the new global one
        (same derivation rules as :meth:`register_table`); replicas that
        no longer expose every global column are dropped, statistics
        gathered under the old schema are discarded, and the table's
        schema version plus the owning source's epoch advance — every
        cached plan and fragment touching the table dies.

        Returns ``{"dropped_replicas": [source, ...]}``.
        """
        entry = self.catalog.table(name)
        if entry.is_view or entry.mapping is None:
            raise CatalogError(f"cannot alter view {name!r}")
        source = entry.mapping.source
        adapter: Adapter = self.catalog.source(source)
        native_name = remote_table or entry.mapping.remote_table
        resolved = self._find_native_table(adapter, native_name)
        if resolved is None:
            raise UnknownObjectError(
                f"source {source!r} has no table {native_name!r}"
            )
        native_key, native_schema = resolved
        mapping = TableMapping(
            source=source,
            remote_table=native_key,
            column_map=dict(column_map or {}),
        )
        if schema is None:
            reverse = {v.lower(): k for k, v in (column_map or {}).items()}
            columns = [
                Column(reverse.get(c.name.lower(), c.name), c.dtype)
                for c in native_schema.columns
            ]
            schema = TableSchema(name, columns)
        else:
            for column in schema.columns:
                native = mapping.remote_column(column.name)
                if not native_schema.has_column(native):
                    raise CatalogError(
                        f"global column {column.name!r} maps to missing native "
                        f"column {native!r} on {source}.{native_schema.name}"
                    )
        survivors: List[TableMapping] = []
        dropped: List[str] = []
        for replica in entry.replicas:
            replica_adapter: Adapter = self.catalog.source(replica.source)
            replica_native = self._find_native_table(
                replica_adapter, replica.remote_table
            )
            keeps = replica_native is not None and all(
                replica_native[1].has_column(replica.remote_column(c.name))
                for c in schema.columns
            )
            if keeps:
                survivors.append(replica)
            else:
                dropped.append(replica.source)
        self.catalog.alter_table(name, schema, mapping, survivors)
        return {"dropped_replicas": dropped}

    def register_all_tables(self, source: str) -> List[str]:
        """Publish every native table of a source under its native name."""
        adapter: Adapter = self.catalog.source(source)
        registered = []
        for native_name in adapter.tables():
            self.register_table(native_name, source=source)
            registered.append(native_name)
        return registered

    def create_view(self, name: str, sql: str) -> None:
        """Define an integration view (validated by binding it once)."""
        self.catalog.register_view(name, sql)
        try:
            Analyzer(self.catalog).bind_statement(parse_select(sql))
        except Exception:
            self.catalog.drop(name)
            raise

    # -- materialized views -------------------------------------------------------

    def create_materialized_view(
        self, name: str, sql: str, staleness_ms: float = 0.0
    ) -> None:
        """Define a materialized GAV view and build its first snapshot.

        The view is also registered as an ordinary integration view, so a
        reference that finds the snapshot too stale falls back to normal
        view expansion against the base sources. ``staleness_ms`` bounds
        how long the snapshot may keep serving after a source epoch bump
        invalidates it (0 = serve only while every source epoch is
        unchanged). Usually reached through SQL::

            CREATE MATERIALIZED VIEW name [WITH STALENESS ms] AS SELECT ...
        """
        self.create_view(name, sql)
        registered = False
        try:
            with self.materialized.suspended():
                bound = Analyzer(self.catalog).bind_statement(parse_select(sql))
            self.materialized.register(
                name,
                sql,
                staleness_ms,
                [column.name for column in bound.output_columns],
                [column.dtype for column in bound.output_columns],
            )
            registered = True
            self._refresh_snapshot(name)
        except Exception:
            if registered:
                self.materialized.drop(name)
            self.catalog.drop(name)
            self.plan_cache.invalidate()
            raise
        self.catalog.publish(
            catalog_events.MATERIALIZED_CREATED,
            name=name,
            payload={"sql": sql, "staleness_ms": staleness_ms},
        )

    def refresh_materialized_view(self, name: str) -> None:
        """Re-execute the view's SELECT against base sources and install
        the rows as the current snapshot (``REFRESH MATERIALIZED VIEW``)."""
        if not self.materialized.has(name):
            raise CatalogError(f"unknown materialized view: {name!r}")
        self._refresh_snapshot(name)

    def drop_materialized_view(self, name: str) -> None:
        """Drop the snapshot and the underlying integration view."""
        self.materialized.drop(name)
        self.catalog.drop(name)
        self.catalog.publish(catalog_events.MATERIALIZED_DROPPED, name=name)

    def _refresh_snapshot(self, name: str) -> None:
        """Execute the defining SELECT with substitution suspended (a
        snapshot must never be built from another view's snapshot) and
        store rows + the epoch snapshot taken *before* execution, so a
        concurrent bump makes the fresh snapshot immediately stale rather
        than silently current."""
        view = self.materialized.get(name)
        epoch_snapshot = self.source_epochs.snapshot()
        with self.materialized.suspended():
            bound = Analyzer(self.catalog).bind_statement(
                parse_select(view.select_sql)
            )
            sources = sorted(
                {
                    mapping.source.lower()
                    for op in bound.walk()
                    if isinstance(op, ScanOp) and op.table.mapping is not None
                    for mapping in op.table.all_mappings()
                }
            )
            result = self._execute_query(
                view.select_sql,
                None,
                lambda tracer, root: (
                    self.planner.plan(
                        view.select_sql, None, tracer=tracer, parent=root
                    ),
                    False,
                ),
            )
        if not result.complete:
            raise ExecutionError(
                f"refusing to materialize {name!r} from a partial result "
                f"(excluded sources: {sorted(result.excluded_sources)})"
            )
        self.materialized.store_snapshot(
            name, result.rows, sources, epoch_snapshot
        )
        self.plan_cache.invalidate()

    # -- statistics ---------------------------------------------------------------

    def analyze(
        self,
        tables: Optional[Sequence[str]] = None,
        histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        sample_rows: Optional[int] = None,
    ) -> Dict[str, TableStatistics]:
        """Gather statistics by scanning sources through their wrappers.

        Only base tables are analyzed (views derive estimates structurally).
        With ``sample_rows`` the scan stops after that many rows (a prefix
        sample — cheap but biased for sorted data) and the row count is
        scaled up using the source's own count metadata when it offers any.
        Returns the statistics keyed by global table name.
        """
        names = list(tables) if tables is not None else self.catalog.table_names()
        collected: Dict[str, TableStatistics] = {}
        for name in names:
            entry = self.catalog.table(name)
            if entry.is_view or entry.mapping is None or entry.schema is None:
                continue
            rows: List[Tuple[Any, ...]] = []
            truncated = False
            for row in self._scan_global(entry):
                if sample_rows is not None and len(rows) >= sample_rows:
                    truncated = True
                    break
                rows.append(row)
            statistics = TableStatistics.from_rows(
                entry.schema, rows, histogram_buckets
            )
            statistics.exact = not truncated
            if truncated:
                adapter: Adapter = self.catalog.source(entry.mapping.source)
                try:
                    total = adapter.row_count(entry.mapping.remote_table)
                except Exception:
                    total = None
                if total is not None:
                    statistics.row_count = float(total)
            self.catalog.set_statistics(name, statistics)
            collected[name] = statistics
        return collected

    def _scan_global(self, entry) -> Iterator[Tuple[Any, ...]]:
        """Scan a base table through its wrapper, in global column order."""
        mapping = entry.mapping
        adapter: Adapter = self.catalog.source(mapping.source)
        resolved = self._find_native_table(adapter, mapping.remote_table)
        if resolved is None:
            raise UnknownObjectError(
                f"source {mapping.source!r} lost table {mapping.remote_table!r}"
            )
        native_key, native_schema = resolved
        indices = [
            native_schema.index_of(mapping.remote_column(column.name))
            for column in entry.schema.columns
        ]
        identity = indices == list(range(len(native_schema.columns)))
        for row in adapter.scan(native_key):
            yield row if identity else tuple(row[i] for i in indices)

    # -- querying ---------------------------------------------------------------

    def plan(self, sql: str, options: Optional[PlannerOptions] = None) -> PlannedQuery:
        """Plan without executing (inspection, tests, benchmarks)."""
        return self.planner.plan(sql, options)

    def _plan_for_query(
        self, sql: str, options: Optional[PlannerOptions], tracer, parent
    ) -> Tuple[PlannedQuery, bool]:
        """Plan ``sql``, through the plan-shape cache when enabled.

        Returns ``(planned, plan_cache_hit)``. On a hit the cached
        distributed plan is rebound to this query's literals and only the
        physical tree is rebuilt; misses (and value-sensitive fallbacks,
        where a literal the optimizer folded away changed) run the full
        pipeline and refresh the cache.
        """
        cache = self.plan_cache
        if not cache.enabled:
            return self.planner.plan(sql, options, tracer=tracer, parent=parent), False
        opts = options or self.planner.options
        with tracer.child(parent, "phase:parse", "phase"):
            statement = parse_select(sql)
        param = parameterize(statement)
        entry = cache.lookup(param.shape_key, opts.plan_key())
        if entry is not None:
            bound = entry.bind(sql, param.values, self.catalog)
            if bound is not None:
                cache.record_hit()
                return bound, True
            cache.record_fallback()
        else:
            cache.record_miss()
        entry = self._plan_and_cache(
            sql, opts, param, pinned=False, tracer=tracer, parent=parent
        )
        return entry.planned, False

    def _plan_and_cache(
        self,
        sql: str,
        opts: PlannerOptions,
        param: ParameterizedStatement,
        pinned: bool,
        tracer=None,
        parent=None,
    ) -> PreparedPlan:
        """Plan a parameterized statement and store it in the plan cache.

        A ``pinned`` plan (a prepared statement's) is planned with
        materialized snapshots suspended, so none of their rows are baked
        into a plan meant for repeated execution. Plans with a spliced-in
        snapshot are never cached: their rows go stale on the staleness
        clock, which the epoch-based plan cache cannot observe.
        """
        epoch = self.plan_cache.epoch
        with self.materialized.suspended() if pinned else contextlib.nullcontext():
            planned = self.planner.plan_statement(
                param.statement, sql, opts, tracer=tracer, parent=parent
            )
        entry = PreparedPlan(
            param.shape_key, opts.plan_key(), planned, param.values,
            param.dtypes, epoch, statement=param.statement,
        )
        if self._materialized_hits(planned) == 0:
            self.plan_cache.store(entry)
        return entry

    @staticmethod
    def _materialized_hits(planned: PlannedQuery) -> int:
        """How many view references the analyzer answered from snapshots."""
        return sum(
            1
            for op in planned.distributed.walk()
            if isinstance(op, MaterializedRowsOp)
        )

    def prepare(
        self, sql: str, options: Optional[PlannerOptions] = None
    ) -> "PreparedStatement":
        """Explicitly prepare a statement for repeated execution.

        The statement's literals become positional parameters (in query
        text order); each :meth:`PreparedStatement.execute` call may
        supply new values. Unlike the implicit plan cache this pins the
        prepared plan on the handle, so it survives cache eviction (but
        still replans after catalog invalidation)."""
        opts = options or self.planner.options
        param = parameterize(parse_select(sql))
        entry = self._plan_and_cache(sql, opts, param, pinned=True)
        return PreparedStatement(self, sql, opts, param, entry)

    def _execution_context(
        self, options: Optional[PlannerOptions], deadline: Optional[Deadline] = None
    ) -> ExecutionContext:
        """Build the runtime context for one query: the mediator's retry
        budget, circuit breakers, health and caches around its options."""
        opts = options or self.planner.options
        # Per-query fault plans get a fresh injector (deterministic
        # replays); otherwise the mediator's persistent injector applies.
        if opts.faults is not None:
            injector = FaultInjector(opts.faults)
        else:
            injector = self.fault_injector
        return ExecutionContext(
            self.catalog,
            self.network,
            opts,
            retries=self.fragment_retries,
            breakers=self.breakers,
            deadline=deadline,
            fault_injector=injector,
            fragment_cache=(
                self.fragment_cache if self.fragment_cache.enabled else None
            ),
            health=self.health,
        )

    def _execute(self, planned: PlannedQuery, context: ExecutionContext) -> List[Tuple[Any, ...]]:
        """Drain the physical plan batch-at-a-time, offering the scheduler
        every independent exchange to prestart; always tears the scheduler
        down (abandoning workers of failed/hung fragments)."""
        scheduler = context.scheduler
        try:
            # Don't offer a fetch the fragment cache is about to answer —
            # a worker would charge the network for pages nobody consumes.
            # (A prestarted exchange may still *fill* the cache; it just
            # never replays from it.)
            cache = context.fragment_cache
            scheduler.prestart(
                (
                    op
                    for op in planned.physical.walk()
                    if isinstance(op, ExchangeExec)
                    and (cache is None or not cache.would_serve(op.fragment))
                ),
                context,
            )
            return self._drain_batches(planned.physical, context)
        finally:
            scheduler.close(context)

    @staticmethod
    def _drain_batches(root, context: ExecutionContext) -> List[Tuple[Any, ...]]:
        """Materialize the root operator's page stream into result rows,
        recording how the dataflow was batched (non-empty pages only)."""
        rows: List[Tuple[Any, ...]] = []
        batches = 0
        for batch in root.iterate_batches(context):
            if batch:
                batches += 1
                rows.extend(batch)
        context.metrics.batches_output = batches
        context.metrics.batch_rows_avg = len(rows) / batches if batches else 0.0
        return rows

    def query(
        self, sql: str, options: Optional[PlannerOptions] = None
    ) -> QueryResult:
        """Plan and execute a query, returning rows plus metrics.

        Also accepts the materialized-view DDL statements (``CREATE
        MATERIALIZED VIEW``, ``REFRESH MATERIALIZED VIEW``, ``DROP
        MATERIALIZED VIEW``); those return a one-row status result."""
        utility = parse_utility(sql)
        if utility is not None:
            return self._execute_utility(utility)
        return self._execute_query(
            sql,
            options,
            lambda tracer, root: self._plan_for_query(sql, options, tracer, root),
        )

    def _execute_utility(self, utility: UtilityStatement) -> QueryResult:
        """Run a materialized-view DDL statement; one status row back."""
        started = time.perf_counter()
        if utility.kind == "create_materialized":
            assert utility.select_sql is not None
            self.create_materialized_view(
                utility.name,
                utility.select_sql,
                staleness_ms=utility.staleness_ms,
            )
            view = self.materialized.get(utility.name)
            message = (
                f"materialized view {utility.name} created "
                f"({len(view.rows)} rows)"
            )
        elif utility.kind == "refresh_materialized":
            self.refresh_materialized_view(utility.name)
            view = self.materialized.get(utility.name)
            message = (
                f"materialized view {utility.name} refreshed "
                f"({len(view.rows)} rows)"
            )
        else:
            self.drop_materialized_view(utility.name)
            message = f"materialized view {utility.name} dropped"
        wall_ms = (time.perf_counter() - started) * 1000.0
        return QueryResult(
            column_names=["status"],
            rows=[(message,)],
            metrics=QueryMetrics(network=ExecutionMetrics(), wall_ms=wall_ms),
        )

    def _execute_query(
        self,
        sql: str,
        options: Optional[PlannerOptions],
        plan_fn,
        profiles: Optional[Dict[int, OperatorProfile]] = None,
    ) -> QueryResult:
        """Plan (via ``plan_fn``) and execute one query with full tracing,
        metrics, and failure accounting — the one execute path, shared by
        :meth:`query`, prepared statements, materialized-view refresh and
        :meth:`explain_analyze`.

        ``plan_fn(tracer, root)`` returns ``(planned, plan_cache_hit)``.
        The operators are profiled once when the tracer is live (for their
        spans) or when ``profiles`` is given; the profiles are then also
        written into ``profiles``."""
        obs = self.obs
        tracer = obs.tracer
        opts = options or self.planner.options
        # The deadline budgets the whole query, so it starts before planning.
        deadline = Deadline(opts.deadline_ms) if opts.deadline_ms > 0 else None
        root = tracer.root_span("query", force=opts.trace, sql=sql)
        started = time.perf_counter()
        context = None
        planned = None
        try:
            planned, plan_hit = plan_fn(tracer, root)
            context = self._execution_context(opts, deadline)
            context.metrics.plan_cache_hit = plan_hit
            context.metrics.materialized_view_hits = self._materialized_hits(
                planned
            )
            context.tracer = tracer
            exec_span = tracer.child(root, "phase:execute", "phase")
            context.trace_span = exec_span
            if exec_span or profiles is not None:
                profiled = profile_operators(
                    planned.physical, tracer=tracer, parent=exec_span
                )
                if profiles is not None:
                    profiles.update(profiled)
            try:
                rows = self._execute(planned, context)
            finally:
                exec_span.end()
            context.metrics.rows_output = len(rows)
        except BaseException as exc:
            root.set_attribute("error", repr(exc))
            wall_ms = (time.perf_counter() - started) * 1000.0
            if context is not None:
                # A failed query still shipped pages, tripped breakers, and
                # burned retries — fold its real transfer totals in.
                obs.record_query(
                    sql,
                    QueryMetrics(
                        network=context.metrics,
                        wall_ms=wall_ms,
                        planning_ms=planned.planning_ms if planned else 0.0,
                    ),
                    failed=True,
                )
            elif obs.registry.enabled:
                obs.registry.counter("queries_total").inc()
                obs.registry.counter("queries_failed_total").inc()
            raise
        finally:
            root.end()
            if obs.registry.enabled:
                obs.publish_breakers(self.breakers)
                obs.publish_health(self.health)
                obs.publish_cache_stats(
                    fragment_cache=(
                        self.fragment_cache.stats()
                        if self.fragment_cache.enabled
                        else None
                    ),
                    materialized=(
                        self.materialized.stats()
                        if self.materialized.names()
                        else None
                    ),
                )
            obs.collect()
            obs.maybe_export()
        wall_ms = (time.perf_counter() - started) * 1000.0
        metrics = QueryMetrics(
            network=context.metrics,
            wall_ms=wall_ms,
            planning_ms=planned.planning_ms,
        )
        excluded = dict(context.excluded_sources)
        result = QueryResult(
            column_names=planned.output_names,
            rows=rows,
            metrics=metrics,
            complete=not excluded,
            excluded_sources=excluded,
        )
        obs.record_query(sql, metrics, excluded_sources=excluded)
        return result

    def notify_source_changed(self, source: str) -> int:
        """Tell the mediator a source's data changed out of band.

        Sources are autonomous — the mediator cannot see their writes.
        This is the hook an application (or test harness) calls when it
        knows data moved: the source's epoch is bumped, which lazily
        invalidates fragment-cache entries and materialized snapshots
        built on the old epoch, and the plan cache is invalidated (via the
        catalog event the bump publishes). Returns the new epoch.
        """
        return self.catalog.notify_source_changed(source)

    def catalog_status(self) -> Dict[str, Any]:
        """One operator-facing picture of the live catalog: sources with
        their epochs, tables/views with per-entry versions, materialized
        views, and the journal position. Consumed by the REPL's
        ``\\catalog`` command and the serve tier's ``catalog`` op."""
        versions = self.catalog.versions
        sources = [
            {
                "name": name,
                "epoch": versions.current(name),
                "tables": len(self.catalog.tables_on_source(name)),
                "recoverable": self.catalog.source_spec(name) is not None,
            }
            for name in self.catalog.source_names()
        ]
        tables = []
        for name in self.catalog.table_names():
            entry = self.catalog.table(name)
            tables.append(
                {
                    "name": entry.name,
                    "kind": "view" if entry.is_view else "table",
                    "source": entry.mapping.source if entry.mapping else None,
                    "replicas": len(entry.replicas),
                    "schema_version": versions.schema_version(name),
                    "stats_version": versions.stats_version(name),
                    "analyzed": self.catalog.statistics(name) is not None,
                }
            )
        return {
            "catalog_epoch": versions.catalog_epoch,
            "sources": sources,
            "tables": tables,
            "materialized": sorted(self.materialized.names()),
            "journal": (
                self.catalog_journal.position()
                if self.catalog_journal is not None
                else None
            ),
            "recovery": self.catalog_recovery,
            "health": self.health_status(),
        }

    def health_status(
        self, options: Optional[PlannerOptions] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Per-source tail-health picture for operators: latency
        quantiles/EWMA, error rate, hedge win/loss counters, breaker
        state, and the no-progress timeout currently in force (the
        adaptive quantile-derived budget once the source is warm, else
        the static ``fragment_timeout_ms``). Consumed by the REPL's
        ``\\health`` command and the serve tier's ``catalog`` op."""
        opts = options or self.planner.options
        health = self.health.snapshot()
        breakers = self.breakers.snapshot()
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.catalog.source_names():
            key = name.lower()
            entry: Dict[str, Any] = dict(
                health.get(
                    key,
                    {
                        "ewma_ms": None, "p50_ms": None, "p95_ms": None,
                        "p99_ms": None, "samples": 0, "errors": 0,
                        "successes": 0, "error_rate": 0.0,
                        "hedges_launched": 0, "hedges_won": 0,
                    },
                )
            )
            timeout_ms: Optional[float] = None
            adaptive = False
            if opts.adaptive_timeout:
                budget = self.health.adaptive_timeout_ms(
                    key,
                    opts.timeout_multiplier,
                    opts.timeout_floor_ms,
                    opts.timeout_ceiling_ms,
                )
                if budget is not None:
                    timeout_ms, adaptive = budget, True
            if timeout_ms is None and opts.fragment_timeout_ms > 0:
                timeout_ms = opts.fragment_timeout_ms
            entry["timeout_ms"] = timeout_ms
            entry["timeout_adaptive"] = adaptive
            entry["breaker"] = breakers.get(
                key, {"state": "closed", "trips": 0, "failures": 0}
            )
            out[name] = entry
        return out

    def explain_analyze(
        self, sql: str, options: Optional[PlannerOptions] = None
    ) -> str:
        """Execute the query and report actuals per physical operator.

        The query really runs (network is charged as usual); the report
        shows the physical tree annotated with produced row and batch
        counts and inclusive wall time per node, plus the transfer
        metrics. The run goes through the ordinary execute path, so it
        counts as a query in the metrics registry and slow-query log, and
        emits operator spans like any traced query when the tracer is live.
        """
        physical: Optional[PhysicalOperator] = None
        profiles: Dict[int, OperatorProfile] = {}

        def plan_fn(tracer, root):
            nonlocal physical
            root.set_attribute("analyze", True)
            # Never the plan cache: the report must not depend on its state.
            planned = self.planner.plan(sql, options, tracer=tracer, parent=root)
            physical = planned.physical
            return planned, False

        result = self._execute_query(sql, options, plan_fn, profiles)
        assert physical is not None
        sections = [
            "== physical plan (actual rows) ==",
            physical.explain(
                row_counts={op: p.rows for op, p in profiles.items()},
                batch_counts={op: p.batches for op, p in profiles.items()},
                timings={op: p.wall_ms for op, p in profiles.items()},
            ),
            "",
            f"result rows: {len(result.rows)}",
            result.metrics.summary(),
        ]
        if result.excluded_sources:
            sections.append("")
            sections.append("== PARTIAL RESULT: excluded sources ==")
            for source, reason in sorted(result.excluded_sources.items()):
                sections.append(f"[{source}] {reason}")
        return "\n".join(sections)

    def explain(self, sql: str, options: Optional[PlannerOptions] = None) -> str:
        """EXPLAIN text: distributed plan, physical plan, and — for SQL
        sources — the native SQL each fragment compiles to."""
        planned = self.planner.plan(sql, options)
        sections = [planned.explain()]
        fragment_sqls = self._fragment_sql(planned)
        if fragment_sqls:
            sections.append("")
            sections.append("== fragment SQL ==")
            sections.extend(fragment_sqls)
        return "\n".join(sections)

    def _fragment_sql(self, planned: PlannedQuery) -> List[str]:
        from .logical import RemoteQueryOp

        lines: List[str] = []
        for node in planned.distributed.walk():
            if isinstance(node, RemoteQueryOp):
                adapter = self.catalog.source(node.source_name)
                compiler = getattr(adapter, "compile_fragment", None)
                if compiler is None:
                    continue
                from .fragments import Fragment

                try:
                    sql = compiler(Fragment(node.source_name, node.fragment))
                except Exception:  # non-SQL fragments (bind placeholders etc.)
                    continue
                lines.append(f"[{node.source_name}] {sql}")
        return lines

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _find_native_table(
        adapter: Adapter, native_name: str
    ) -> Optional[Tuple[str, TableSchema]]:
        """Resolve a native table case-insensitively to (stored key, schema)."""
        tables = adapter.tables()
        if native_name in tables:
            return native_name, tables[native_name]
        for name, schema in tables.items():
            if name.lower() == native_name.lower():
                return name, schema
        return None


class PreparedStatement:
    """A parameterized statement pinned to its prepared plan.

    Obtained from :meth:`GlobalInformationSystem.prepare`. Parameters are
    positional in query-text order — the N-th literal of the original SQL
    is parameter N. ``execute()`` with no arguments re-runs with the
    original literals; with a value list it rebinds the plan (or replans
    when a value the optimizer folded into the plan changed, or the
    catalog epoch moved)."""

    def __init__(
        self,
        gis: GlobalInformationSystem,
        sql: str,
        options: PlannerOptions,
        param: ParameterizedStatement,
        entry: PreparedPlan,
    ) -> None:
        self._gis = gis
        self.sql = sql
        self.options = options
        self._param = param
        self._entry = entry

    @property
    def parameter_count(self) -> int:
        return self._param.parameter_count

    @property
    def parameter_types(self) -> List[Any]:
        return list(self._param.dtypes)

    def execute(
        self,
        params: Optional[Sequence[Any]] = None,
        options: Optional[PlannerOptions] = None,
    ) -> QueryResult:
        """Execute with ``params`` bound in place of the original literals."""
        opts = options or self.options
        values = (
            list(params) if params is not None else list(self._param.values)
        )
        if len(values) != self._param.parameter_count:
            raise PlanError(
                f"prepared statement takes {self._param.parameter_count} "
                f"parameter(s), got {len(values)}"
            )
        for slot, (value, dtype) in enumerate(zip(values, self._param.dtypes)):
            if value is None:
                continue
            expected = _PARAM_PYTHON_TYPES.get(dtype)
            if expected is not None and not isinstance(value, expected):
                raise PlanError(
                    f"parameter {slot} expects {dtype.name}, got "
                    f"{type(value).__name__} ({value!r})"
                )

        def plan_fn(tracer, root):
            cache = self._gis.plan_cache
            entry = self._entry
            if entry.epoch == cache.epoch:
                bound = entry.bind(self.sql, values, self._gis.catalog)
                if bound is not None:
                    cache.record_hit()
                    return bound, True
            param = dataclasses.replace(
                self._param,
                statement=bind_statement_values(self._param.statement, values),
                values=values,
            )
            self._entry = self._gis._plan_and_cache(
                self.sql, opts, param, pinned=True, tracer=tracer, parent=root
            )
            return self._entry.planned, False

        return self._gis._execute_query(self.sql, opts, plan_fn)


#: Accepted Python types per global parameter type (NULL always allowed).
_PARAM_PYTHON_TYPES = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (int, float),
    DataType.TEXT: (str,),
    DataType.BOOLEAN: (bool,),
    DataType.DATE: (date,),
}
