"""Physical plan: batch-at-a-time operators with exchange at source boundaries.

The physical planner maps each logical node onto an operator implementation:

* ``RemoteQueryOp`` → :class:`ExchangeExec` (fragment execution at the
  source + paged transfer accounting on the simulated network), or — when a
  bind spec is attached — a :class:`BindJoinExec` at the consuming join;
* equi-joins → :class:`HashJoinExec` (right side builds), everything else →
  :class:`NestedLoopJoinExec`;
* aggregation → :class:`HashAggregateExec`; sorts are full in-memory sorts.

Operators pull **columnar pages** (:class:`~repro.core.pages.Page`: one
Python list per column plus a row count, up to
``ExecutionContext.batch_size`` rows each) through Python generators:
``iterate_batches`` is the one protocol every operator implements.
Filters and projections run vectorized kernels straight
over the column vectors; joins and aggregation evaluate their
key/argument expressions as whole columns and touch rows only where the
algorithm is inherently row-wise.

Network accounting is independent of the batch size: exchanges charge the
simulated network once per **adapter page** (``capabilities().page_rows``),
and charged pages are only ever *split* — never coalesced — into dataflow
batches, so a query's transfer metrics are bit-identical across batch sizes. All charging flows through the
:class:`ExecutionContext` so those metrics are exact and deterministic.
"""

from __future__ import annotations

import datetime
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..cache.keys import fragment_shape
from ..catalog.catalog import Catalog
from ..datatypes import DataType
from ..errors import ExecutionError, PlanError, QueryTimeoutError, SourceError
from ..obs.trace import NULL_SPAN, NULL_TRACER
from ..sql import ast
from ..sources.network import EXACT_UNIT, SimulatedNetwork, exact_units
from .aggregates import make_accumulator, sort_rows
from .expressions import (
    build_layout,
    compile_batch_expression,
    compile_batch_predicate,
    compile_expression,
    compile_predicate,
)
from .fragments import Fragment, equi_join_keys
from .pages import (
    Page,
    chunk_rows,
    pages_from_rows,
    split_batches,
)
from .logical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    JoinOp,
    LimitOp,
    LogicalPlan,
    ProjectOp,
    RelColumn,
    RemoteQueryOp,
    ScanOp,
    SetDifferenceOp,
    SortOp,
    UnionOp,
    ValuesOp,
    WindowOp,
)
from .scheduler import FragmentScheduler

if TYPE_CHECKING:
    from .planner import PlannerOptions

Row = Tuple[Any, ...]

#: The unit of dataflow between operators: a columnar page.
Batch = Page


@dataclass
class ExecutionMetrics:
    """Per-query execution accounting (exposed on every QueryResult)."""

    rows_shipped: int = 0
    bytes_shipped: float = 0.0
    messages: int = 0
    network_ms: float = 0.0
    fragments_executed: int = 0
    fragment_retries: int = 0
    semijoin_batches: int = 0
    rows_output: int = 0
    plan_cache_hit: bool = False
    per_source_rows: Dict[str, int] = field(default_factory=dict)
    # -- batch execution statistics --
    batches_output: int = 0
    batch_rows_avg: float = 0.0
    # -- fragment scheduler statistics (see repro.core.scheduler) --
    scheduler_mode: str = "sequential"
    fragments_in_flight_peak: int = 0
    scheduler_stalls: int = 0
    breaker_trips: int = 0
    breaker_fallbacks: int = 0
    parallel_ms: float = 0.0
    # -- semantic cache statistics (see repro.cache) --
    fragment_cache_hits: int = 0
    fragment_cache_misses: int = 0
    fragment_cache_bytes_saved: float = 0.0
    materialized_view_hits: int = 0
    # -- tail tolerance (see repro.core.health / docs/resilience.md) --
    # Hedge traffic is included in the rows/bytes/messages totals above
    # (it really crossed the wire) and *additionally* broken out here so
    # the duplicate cost of hedging is always visible.
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    hedges_rows_shipped: int = 0
    hedges_bytes_shipped: float = 0.0
    health_reroutes: int = 0


class ExecutionContext:
    """Runtime services shared by all operators of one query.

    ``options`` is the query's :class:`~repro.core.planner.PlannerOptions`,
    the one runtime policy: this query's
    :class:`~repro.core.scheduler.FragmentScheduler` (``scheduler``, the
    one executor of fragment fetches whatever the degree), every fetch
    envelope (backoff, breaker threshold and reset, health routing) and
    the operators read their knobs from it. ``retries`` is the mediator's
    per-fragment retry budget and ``breakers`` holds the per-source
    circuit breakers (see :mod:`repro.core.scheduler`). Metrics
    accumulation is lock-protected because scheduler worker threads charge
    transfers concurrently.

    ``batch_size`` (from ``options.batch_size``) is the dataflow
    granularity: how many rows operators hand each other per
    ``iterate_batches`` step. It never affects network accounting
    (exchanges charge per adapter page regardless).

    ``deadline`` is the query's wall-clock budget
    (:class:`~repro.core.scheduler.Deadline`, started by the mediator
    before planning), checked cooperatively via :meth:`check_deadline`;
    ``fault_injector`` scripts per-source failures into every adapter page
    fetch (:meth:`execute_pages`). ``options.on_source_failure`` selects
    whether a source that fails past its retry/breaker/replica envelope
    aborts the query (``"fail"``) or is excluded with the query continuing
    (``"partial"`` — recorded in ``excluded_sources``).
    """

    def __init__(
        self,
        catalog: Catalog,
        network: SimulatedNetwork,
        options: "PlannerOptions",
        retries: int = 0,
        breakers=None,
        deadline=None,
        fault_injector=None,
        fragment_cache=None,
        health=None,
    ) -> None:
        self.catalog = catalog
        self.network = network
        self.options = options
        self.retries = max(retries, 0)
        self.breakers = breakers
        #: The mediator's SourceHealthRegistry (repro.core.health), or
        #: None. Producers feed it page-fetch latencies and outcomes;
        #: adaptive timeouts, hedge delays, and health routing read it.
        self.health = health
        self.scheduler = FragmentScheduler(options)
        self.batch_size = options.batch_size
        #: The mediator's semantic fragment cache (repro.cache), or None.
        #: Exchanges probe it before fetching and fill it on miss.
        self.fragment_cache = fragment_cache
        #: Per-source epochs frozen at context construction — strictly
        #: before any fetch begins, so cache admission can detect a
        #: source that moved mid-query and drop the collected pages.
        self.epoch_snapshot: Dict[str, int] = (
            fragment_cache.epochs.snapshot()
            if fragment_cache is not None
            else {}
        )
        self.deadline = deadline
        self.fault_injector = fault_injector
        #: ``source -> reason`` for sources excluded under "partial".
        self.excluded_sources: Dict[str, str] = {}
        self.metrics = ExecutionMetrics(scheduler_mode=self.scheduler.mode)
        self._metrics_lock = threading.Lock()
        # ``metrics.network_ms`` is this exact sum rounded once, so it does
        # not depend on the order worker threads charge their pages in.
        self._network_units = 0
        # Tracing hooks (see repro.obs): the mediator arms these per query.
        # Operators and the scheduler call them unconditionally — the NULL
        # singletons make the disabled path a single falsy check.
        self.tracer = NULL_TRACER
        self.trace_span = NULL_SPAN

    def trace_child(self, name: str, category: str = "", **attributes):
        """A span under this query's execute span (NULL when tracing is off)."""
        return self.tracer.child(self.trace_span, name, category, **attributes)

    def breaker_for(self, source_name: str):
        """This source's circuit breaker, or None when breakers are off."""
        if self.breakers is None:
            return None
        threshold = self.options.breaker_failure_threshold
        if threshold <= 0:
            return None
        return self.breakers.breaker_for(
            source_name, threshold, self.options.breaker_reset_ms
        )

    def execute_pages(self, adapter, fragment, page_rows: int):
        """The adapter page path every fetch routes through.

        With a fault injector armed, pages stream through its scripted
        per-source failure logic; otherwise this is exactly
        ``adapter.execute_pages`` — one attribute check of overhead.
        """
        if self.fault_injector is not None:
            return self.fault_injector.execute_pages(adapter, fragment, page_rows)
        return adapter.execute_pages(fragment, page_rows)

    def deadline_error(self, source_name: Optional[str] = None) -> QueryTimeoutError:
        """Build (without raising) the attributed timeout for this query."""
        deadline = self.deadline
        assert deadline is not None
        with self._metrics_lock:
            per_source = dict(self.metrics.per_source_rows)
        return QueryTimeoutError(
            deadline.budget_ms, deadline.elapsed_ms(), source_name, per_source
        )

    def check_deadline(self, source_name: Optional[str] = None) -> None:
        """Cooperative cancellation point (page boundaries, retry gates).

        No-op without a deadline; raises :class:`QueryTimeoutError` with
        per-source attribution once the budget is exhausted.
        """
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            self.trace_span.event(
                "deadline", budget_ms=deadline.budget_ms, source=source_name
            )
            raise self.deadline_error(source_name)

    def record_exclusion(self, source_name: str, reason) -> None:
        """Mark one source's rows as missing from this query's result.

        Called when ``on_source_failure="partial"`` degrades a dead
        source's scan to empty; first reason per source wins (the
        original failure, not any follow-on noise).
        """
        key = source_name.lower()
        with self._metrics_lock:
            self.excluded_sources.setdefault(key, str(reason))
        self.trace_span.event("source-excluded", source=key)

    def add_metric(self, name: str, amount) -> None:
        """Thread-safe increment of a numeric metric field."""
        with self._metrics_lock:
            setattr(self.metrics, name, getattr(self.metrics, name) + amount)

    def set_metric(self, name: str, value) -> None:
        with self._metrics_lock:
            setattr(self.metrics, name, value)

    def charge_transfer(
        self, source_name: str, page: Page, messages: int, sizer=None
    ) -> float:
        """Account one page moving from a source to the mediator.

        ``sizer`` is an optional memoized batch sizer (see
        :func:`make_batch_sizer`) that computes the page's wire size in one
        call from per-column dtype closures over the column vectors;
        without one the page is sized value by value. Both produce
        identical totals.

        Returns the simulated elapsed milliseconds of this transfer so the
        scheduler can attribute it to the fragment's virtual-clock lane.
        """
        if sizer is not None:
            payload = sizer(page)
        else:
            payload = sum(
                _value_bytes(value)
                for column in page.columns
                for value in column
            )
        rows = page.num_rows
        elapsed = self.network.record_transfer(
            source_name, payload, rows, messages,
            extra_latency_ms=self._fault_latency(source_name),
        )
        with self._metrics_lock:
            metrics = self.metrics
            metrics.rows_shipped += rows
            metrics.bytes_shipped += payload
            metrics.messages += messages
            self._network_units += exact_units(elapsed)
            metrics.network_ms = self._network_units / EXACT_UNIT
            key = source_name.lower()
            metrics.per_source_rows[key] = (
                metrics.per_source_rows.get(key, 0) + rows
            )
        return elapsed

    def charge_request(self, source_name: str, payload_bytes: float) -> float:
        """Account an upload-only message (semijoin key batches)."""
        elapsed = self.network.record_transfer(
            source_name, payload_bytes, 0, 1,
            extra_latency_ms=self._fault_latency(source_name),
        )
        with self._metrics_lock:
            self.metrics.messages += 1
            self.metrics.bytes_shipped += payload_bytes
            self._network_units += exact_units(elapsed)
            self.metrics.network_ms = self._network_units / EXACT_UNIT
        return elapsed

    def _fault_latency(self, source_name: str) -> float:
        """The armed plan's scripted latency spike for a source (ms/message)."""
        if self.fault_injector is None:
            return 0.0
        return self.fault_injector.latency_penalty_ms(source_name)


def _row_bytes(row: Row) -> float:
    """Actual wire size of a row (value-dependent for TEXT)."""
    total = 0.0
    for value in row:
        total += _value_bytes(value)
    return total


def _value_bytes(value: Any) -> float:
    """Wire size of one value (the per-value fallback the sizers memoize)."""
    if value is None:
        return 1.0
    if isinstance(value, bool):
        return 1.0
    if isinstance(value, (int, float)):
        return 8.0
    if isinstance(value, str):
        return float(len(value))
    if isinstance(value, datetime.date):
        return 4.0
    return 8.0  # pragma: no cover - no other global types exist


def _text_sizer(values: List[Any]) -> float:
    """Wire size of a TEXT column vector.

    ``sum(map(len, ...))`` runs entirely in C; NULLs take the filtered
    variant (``filter(None, ...)`` also drops empty strings, which weigh
    nothing anyway). A defensive non-string value falls back to the
    per-value path via the TypeError from ``len``.
    """
    nulls = values.count(None)
    try:
        if not nulls:
            return float(sum(map(len, values)))
        return float(sum(map(len, filter(None, values)))) + nulls
    except TypeError:
        return sum(
            float(len(v)) if isinstance(v, str) else _value_bytes(v)
            for v in values
        )


def _column_sizer(dtype):
    """A per-column sizer ``fn(values) -> bytes`` specialized on the dtype.

    ``values`` is a page column vector. Each closure reproduces
    :func:`_value_bytes` exactly for the values a column of that dtype can
    hold (including NULLs and, defensively, booleans inside numeric
    columns), so memoized totals are identical to the value-by-value sum —
    just without an isinstance chain per cell.
    """
    if dtype in (DataType.BOOLEAN, DataType.NULL):
        # bools and NULLs are both 1 byte: a constant per value.
        return lambda values: float(len(values))
    if dtype in (DataType.INTEGER, DataType.FLOAT):
        # 8 bytes per number; count the 1-byte exceptions instead of
        # summing a float per cell.
        return lambda values: 8.0 * len(values) - 7.0 * sum(
            1 for v in values if v is None or v is True or v is False
        )
    if dtype is DataType.DATE:
        return lambda values: 4.0 * len(values) - 3.0 * values.count(None)
    if dtype is DataType.TEXT:
        return _text_sizer
    return lambda values: sum(_value_bytes(v) for v in values)


def make_batch_sizer(columns: Sequence[RelColumn]):
    """Memoized wire sizing for one fragment's output schema.

    Returns ``fn(page) -> bytes``: per-column dtype closures are resolved
    once per fragment (at plan time) and applied straight to the page's
    column vectors — no per-row iteration, no per-value isinstance chain.
    Totals are identical to :func:`_row_bytes` summed over the rows.
    """
    sizers = [(index, _column_sizer(column.dtype)) for index, column in enumerate(columns)]

    def batch_bytes(page: Page) -> float:
        total = 0.0
        columns = page.columns
        for index, sizer in sizers:
            total += sizer(columns[index])
        return total

    return batch_bytes


# The batching helpers (chunk_rows, split_batches, pages_from_rows) live in
# repro.core.pages and are re-exported here for compatibility.


def _materialize_rows(child: "PhysicalOperator", ctx: "ExecutionContext") -> List[Row]:
    """Drain a child operator to a row list, one deadline check per batch
    (the cancellation point for blocking materializations)."""
    rows: List[Row] = []
    for batch in child.iterate_batches(ctx):
        ctx.check_deadline()
        rows.extend(batch)
    return rows


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class PhysicalOperator:
    """Base class: an output schema plus a pull-based page stream.

    Every operator implements ``iterate_batches``, which yields
    :class:`Page` objects of at most ``ctx.batch_size`` rows.
    """

    def __init__(self, columns: Sequence[RelColumn]) -> None:
        self.columns = list(columns)

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement iterate_batches"
        )

    def describe(self) -> str:
        return type(self).__name__.replace("Exec", "")

    def children(self) -> List["PhysicalOperator"]:
        return []

    def explain(
        self,
        indent: int = 0,
        row_counts: Optional[Dict[int, int]] = None,
        batch_counts: Optional[Dict[int, int]] = None,
        timings: Optional[Dict[int, float]] = None,
    ) -> str:
        label = "  " * indent + self.describe()
        if row_counts is not None and id(self) in row_counts:
            label += f"  [{row_counts[id(self)]} rows"
            if batch_counts is not None and batch_counts.get(id(self)):
                label += f" / {batch_counts[id(self)]} batches"
            if timings is not None and id(self) in timings:
                label += f" / {timings[id(self)]:.1f} ms"
            label += "]"
        lines = [label]
        for child in self.children():
            lines.append(
                child.explain(indent + 1, row_counts, batch_counts, timings)
            )
        return "\n".join(lines)

    def walk(self) -> Iterator["PhysicalOperator"]:
        """This operator and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class OperatorProfile:
    """Execution actuals for one physical operator.

    ``wall_ms`` is *inclusive* time: milliseconds spent inside this
    operator's pull (which contains its children's pulls), summed over
    every batch it produced — the number EXPLAIN ANALYZE reports per node.
    """

    rows: int = 0
    batches: int = 0
    wall_ms: float = 0.0


def profile_operators(
    root: PhysicalOperator, tracer=None, parent=None
) -> Dict[int, "OperatorProfile"]:
    """Wrap every operator's stream to record rows, batches, and time.

    Returns ``id(op) -> OperatorProfile``, filled in during execution —
    the EXPLAIN ANALYZE / per-operator tracing mechanism. When a live
    ``tracer`` and ``parent`` span are given, each operator additionally
    emits one span covering its first pull through exhaustion, annotated
    with its actuals. Wrapping mutates the per-plan operator instances.
    """
    tracer = tracer or NULL_TRACER
    parent = parent if parent is not None else NULL_SPAN
    profiles: Dict[int, OperatorProfile] = {}
    clock = time.perf_counter

    def wrap(op: PhysicalOperator) -> None:
        profile = profiles[id(op)] = OperatorProfile()
        label = op.describe()

        def profiled(ctx: ExecutionContext, _original=op.iterate_batches,
                     _profile=profile, _label=label):
            span = tracer.child(parent, f"op:{_label}", "operator")
            iterator = _original(ctx)
            elapsed = 0.0
            try:
                while True:
                    started = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        elapsed += clock() - started
                        return
                    elapsed += clock() - started
                    _profile.batches += 1
                    _profile.rows += len(item)
                    yield item
            finally:
                _profile.wall_ms += elapsed * 1000.0
                if span:
                    span.set_attribute("rows", _profile.rows)
                    span.set_attribute("batches", _profile.batches)
                    span.set_attribute("busy_ms", round(_profile.wall_ms, 3))
                    span.end()

        op.iterate_batches = profiled  # type: ignore[method-assign]

    for operator in root.walk():
        wrap(operator)
    return profiles


class StaticRowsExec(PhysicalOperator):
    """Literal rows (FROM-less selects, constant-folded empties)."""

    def __init__(self, rows: List[Row], columns: Sequence[RelColumn]) -> None:
        super().__init__(columns)
        self._rows = rows

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        width = len(self.columns)
        yield from pages_from_rows(self._rows, ctx.batch_size, width)

    def describe(self) -> str:
        return f"StaticRows({len(self._rows)})"


class ExchangeExec(PhysicalOperator):
    """Fetch a fragment's result from its source over the simulated network.

    The query's :class:`~repro.core.scheduler.FragmentScheduler` runs the
    fetch — inline on this operator's thread, or on a worker thread
    feeding a bounded page queue that this operator drains. Which one is
    a runtime choice; the operator and the plan are the same either way.
    """

    def __init__(
        self,
        adapter: Any,
        fragment: Fragment,
        columns: Sequence[RelColumn],
        page_rows: int,
    ) -> None:
        super().__init__(columns)
        self.adapter = adapter
        self.fragment = fragment
        self.page_rows = max(page_rows, 1)
        self._sizer = make_batch_sizer(columns)

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        try:
            yield from self._batches(ctx)
        except SourceError as exc:
            # Graceful degradation: past the whole retry/breaker/replica
            # envelope, a dead source's scan becomes empty and the query
            # carries on — flagged, never silent (the mediator stamps
            # complete=False from ctx.excluded_sources). Deadline expiry
            # (QueryTimeoutError) is never downgraded to a partial result.
            if ctx.options.on_source_failure != "partial":
                raise
            ctx.record_exclusion(exc.source_name, exc)

    def _batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        decision = None
        cache = ctx.fragment_cache
        if cache is not None:
            # A prestarted exchange already has a worker fetching (and
            # charging the network) — it may fill the cache but must not
            # replay from it.
            prestarted = ctx.scheduler.was_prestarted(self)
            decision = cache.begin(self, ctx, allow_replay=not prestarted)
        if decision is not None and decision.replay is not None:
            pages = decision.replay
        else:
            pages = ctx.scheduler.stream_exchange_pages(self, ctx)
            if decision is not None and decision.fill is not None:
                pages = decision.fill(pages)
        # Split charged pages down to the dataflow batch size — never
        # merged across page boundaries (see split_batches).
        source = self.fragment.source_name
        for batch in split_batches(pages, ctx.batch_size):
            ctx.check_deadline(source)
            yield batch

    def describe(self) -> str:
        return f"Exchange(source={self.fragment.source_name})"


class FilterExec(PhysicalOperator):
    """Vectorized selection: mask the page, gather survivors by index."""

    def __init__(self, child: PhysicalOperator, predicate: ast.Expr) -> None:
        super().__init__(child.columns)
        self.child = child
        self._kernel = compile_batch_predicate(
            predicate, build_layout(child.columns)
        )

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        kernel = self._kernel
        for batch in self.child.iterate_batches(ctx):
            selected = kernel(batch)
            if selected:
                yield selected


class ProjectExec(PhysicalOperator):
    """Vectorized projection: one kernel per output column, no row building.

    Column-reference kernels return the child page's column vector as-is,
    so pass-through columns are zero copy; vectors are never mutated
    downstream, which makes the sharing safe.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        expressions: Sequence[ast.Expr],
        columns: Sequence[RelColumn],
    ) -> None:
        super().__init__(columns)
        self.child = child
        layout = build_layout(child.columns)
        self._kernels = [compile_batch_expression(e, layout) for e in expressions]

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        kernels = self._kernels
        for batch in self.child.iterate_batches(ctx):
            # A zero-column projection still carries its row count.
            yield Page([kernel(batch) for kernel in kernels], len(batch))


class HashJoinExec(PhysicalOperator):
    """Equi-join: builds a hash table on the right input, probes with the left.

    Supports INNER, LEFT, SEMI, ANTI (with NOT IN null-awareness), plus a
    residual predicate evaluated on candidate pairs.

    Both sides extract join keys **column-wise, once per page**: a
    single-key join uses the kernel's output vector directly as the key
    column (scalar dict keys — no per-row tuple allocation at all), a
    multi-key join transposes the key vectors with one C-speed
    ``zip(*columns)``. The probe's table lookups run through
    ``map(table.get, keys)`` — a pure C loop per page (NULL and absent
    keys both map to ``None``; NULL keys are never inserted at build, so
    the two are indistinguishable exactly as equi-join semantics demand).
    INNER/SEMI/ANTI probes without a residual assemble output pages
    columnar-ly (index gather on the left, one transpose for matched
    right rows); LEFT joins and residual predicates keep a per-row
    emission loop over the matched candidates.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: str,
        left_keys: Sequence[ast.Expr],
        right_keys: Sequence[ast.Expr],
        residual: Optional[ast.Expr],
        columns: Sequence[RelColumn],
        null_aware: bool = False,
    ) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        self.kind = kind
        self.null_aware = null_aware
        left_layout = build_layout(left.columns)
        right_layout = build_layout(right.columns)
        # Join keys are computed as whole columns per page; the build and
        # probe loops then index into the key vectors row by row.
        self._left_key_kernels = [
            compile_batch_expression(k, left_layout) for k in left_keys
        ]
        self._right_key_kernels = [
            compile_batch_expression(k, right_layout) for k in right_keys
        ]
        combined = build_layout(list(left.columns) + list(right.columns))
        self._residual = (
            compile_predicate(residual, combined) if residual is not None else None
        )

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"HashJoin({self.kind})"

    def _extract_keys(self, kernels, batch: Batch):
        """The page's join-key sequence: the raw key vector for a single
        key, transposed tuples for compound keys."""
        if len(kernels) == 1:
            return kernels[0](batch)
        return list(zip(*[kernel(batch) for kernel in kernels]))

    def _build_table(
        self, ctx: ExecutionContext
    ) -> Tuple[Dict[Any, List[Row]], bool, int]:
        """Hash the right input: ``(table, saw a NULL key, row count)``."""
        table: Dict[Any, List[Row]] = {}
        has_null = False
        count = 0
        setdefault = table.setdefault
        kernels = self._right_key_kernels
        for batch in self.right.iterate_batches(ctx):
            ctx.check_deadline()
            count += len(batch)
            if len(kernels) == 1:
                for key, row in zip(kernels[0](batch), batch):
                    if key is None:
                        has_null = True
                    else:
                        setdefault(key, []).append(row)
            else:
                key_columns = [kernel(batch) for kernel in kernels]
                for key, row in zip(zip(*key_columns), batch):
                    # Key parts are scalar column values, so `in` (which
                    # compares with ==) finds exactly the None parts.
                    if None in key:
                        has_null = True
                    else:
                        setdefault(key, []).append(row)
        return table, has_null, count

    def _make_prober(self, table: Dict[Any, List[Row]], right_count: int):
        """Compile ``probe(page) -> Page | row list | None`` for this join."""
        kernels = self._left_key_kernels
        single = len(kernels) == 1
        extract = self._extract_keys
        residual = self._residual
        kind = self.kind
        null_aware = self.null_aware
        null_right = (None,) * len(self.right.columns)
        get = table.get

        if residual is None and kind == "INNER":

            def probe_inner(batch: Batch):
                keys = extract(kernels, batch)
                left_indices: List[int] = []
                matched_rows: List[Row] = []
                add_index = left_indices.append
                add_row = matched_rows.append
                for index, matches in enumerate(map(get, keys)):
                    if matches is not None:
                        for right_row in matches:
                            add_index(index)
                            add_row(right_row)
                if not left_indices:
                    return None
                left_page = batch.take(left_indices)
                right_columns: List[Any] = [
                    list(column) for column in zip(*matched_rows)
                ]
                return Page(
                    left_page.columns + right_columns, len(left_indices)
                )

            return probe_inner

        if residual is None and kind == "SEMI":

            def probe_semi(batch: Batch):
                keys = extract(kernels, batch)
                keep = [
                    index
                    for index, matches in enumerate(map(get, keys))
                    if matches is not None
                ]
                if not keep:
                    return None
                if len(keep) == batch.num_rows:
                    return batch
                return batch.take(keep)

            return probe_semi

        if residual is None and kind == "ANTI":

            def probe_anti(batch: Batch):
                keys = extract(kernels, batch)
                if null_aware and right_count > 0:
                    # NULL NOT IN (non-empty set) is never TRUE: null-key
                    # rows are dropped along with the matched ones.
                    if single:
                        keep = [
                            index
                            for index, key in enumerate(keys)
                            if key is not None and get(key) is None
                        ]
                    else:
                        keep = [
                            index
                            for index, key in enumerate(keys)
                            if None not in key and get(key) is None
                        ]
                else:
                    keep = [
                        index
                        for index, matches in enumerate(map(get, keys))
                        if matches is None
                    ]
                if not keep:
                    return None
                if len(keep) == batch.num_rows:
                    return batch
                return batch.take(keep)

            return probe_anti

        def probe_general(batch: Batch):
            keys = extract(kernels, batch)
            out: List[Row] = []
            append = out.append
            for left_row, key, matches in zip(batch, keys, map(get, keys)):
                if matches is None:
                    matches = ()
                elif residual is not None:
                    matches = [
                        right_row
                        for right_row in matches
                        if residual(left_row + right_row)
                    ]
                if kind == "INNER":
                    for right_row in matches:
                        append(left_row + right_row)
                elif kind == "LEFT":
                    if matches:
                        for right_row in matches:
                            append(left_row + right_row)
                    else:
                        append(left_row + null_right)
                elif kind == "SEMI":
                    if matches:
                        append(left_row)
                elif kind == "ANTI":
                    if matches:
                        continue
                    if null_aware and right_count > 0:
                        if single:
                            if key is None:
                                continue
                        elif None in key:
                            continue  # NULL NOT IN (non-empty) never TRUE
                    append(left_row)
                else:  # pragma: no cover - planner guards
                    raise ExecutionError(
                        f"hash join cannot handle kind {kind!r}"
                    )
            return out

        return probe_general

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        table, right_has_null_key, right_count = self._build_table(ctx)
        if self.kind == "ANTI" and self.null_aware and right_has_null_key:
            return  # NOT IN with a NULL on the right: empty result
        probe = self._make_prober(table, right_count)
        size = ctx.batch_size
        width = len(self.columns)

        for batch in self.left.iterate_batches(ctx):
            ctx.check_deadline()
            out = probe(batch)
            if out is None:
                continue
            if isinstance(out, Page):
                if out.num_rows:
                    yield from split_batches([out], size)
            elif out:
                yield from pages_from_rows(out, size, width)


class MergeJoinExec(PhysicalOperator):
    """Sort-merge equi-join (INNER only).

    Materializes and sorts both inputs on the join keys, then merges,
    expanding duplicate key groups pairwise. Rows with NULL keys never
    match and are dropped up front. Exists as the classic alternative to
    hash join; selected via ``PlannerOptions(join_algorithm="merge")``.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[ast.Expr],
        right_keys: Sequence[ast.Expr],
        residual: Optional[ast.Expr],
        columns: Sequence[RelColumn],
    ) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        left_layout = build_layout(left.columns)
        right_layout = build_layout(right.columns)
        self._left_key_fns = [compile_expression(k, left_layout) for k in left_keys]
        self._right_key_fns = [compile_expression(k, right_layout) for k in right_keys]
        combined = build_layout(list(left.columns) + list(right.columns))
        self._residual = (
            compile_predicate(residual, combined) if residual is not None else None
        )

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "MergeJoin(INNER)"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        yield from chunk_rows(self._merge(ctx), ctx.batch_size)

    def _merge(self, ctx: ExecutionContext) -> Iterator[Row]:
        left_rows = self._keyed_sorted(self.left, self._left_key_fns, ctx)
        right_rows = self._keyed_sorted(self.right, self._right_key_fns, ctx)
        residual = self._residual
        li = ri = 0
        while li < len(left_rows) and ri < len(right_rows):
            left_key = left_rows[li][0]
            right_key = right_rows[ri][0]
            if left_key < right_key:
                li += 1
            elif left_key > right_key:
                ri += 1
            else:
                left_end = li
                while left_end < len(left_rows) and left_rows[left_end][0] == left_key:
                    left_end += 1
                right_end = ri
                while (
                    right_end < len(right_rows)
                    and right_rows[right_end][0] == right_key
                ):
                    right_end += 1
                for _, left_row in left_rows[li:left_end]:
                    for _, right_row in right_rows[ri:right_end]:
                        row = left_row + right_row
                        if residual is None or residual(row):
                            yield row
                li, ri = left_end, right_end

    @staticmethod
    def _keyed_sorted(child, key_fns, ctx):
        keyed = []
        for batch in child.iterate_batches(ctx):
            ctx.check_deadline()
            for row in batch:
                key = tuple(fn(row) for fn in key_fns)
                if any(part is None for part in key):
                    continue  # NULL keys never equi-match
                keyed.append((key, row))
        keyed.sort(key=lambda pair: pair[0])
        return keyed


class NestedLoopJoinExec(PhysicalOperator):
    """Fallback join for non-equi conditions (and EXISTS-style semis)."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: str,
        condition: Optional[ast.Expr],
        columns: Sequence[RelColumn],
    ) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        self.kind = kind
        combined = build_layout(list(left.columns) + list(right.columns))
        self._condition = (
            compile_predicate(condition, combined) if condition is not None else None
        )

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        right_rows = _materialize_rows(self.right, ctx)
        condition = self._condition
        null_right = (None,) * len(self.right.columns)
        kind = self.kind
        size = ctx.batch_size
        width = len(self.columns)
        for batch in self.left.iterate_batches(ctx):
            out: List[Row] = []
            for left_row in batch:
                if kind in ("SEMI", "ANTI"):
                    if condition is None:
                        matched = bool(right_rows)
                    else:
                        matched = any(
                            condition(left_row + right_row)
                            for right_row in right_rows
                        )
                    if (kind == "SEMI") == matched:
                        out.append(left_row)
                    continue
                matched = False
                for right_row in right_rows:
                    row = left_row + right_row
                    if condition is None or condition(row):
                        matched = True
                        out.append(row)
                if kind == "LEFT" and not matched:
                    out.append(left_row + null_right)
            if out:
                yield from pages_from_rows(out, size, width)


class BindJoinExec(PhysicalOperator):
    """Semijoin-reduced join: ship probe keys, fetch only matching rows.

    ``bound_side`` says which input is the reduced remote fragment; the
    other input is materialized first to produce the key list.
    """

    def __init__(
        self,
        probe: PhysicalOperator,
        remote: RemoteQueryOp,
        adapter: Any,
        page_rows: int,
        bound_side: str,  # "left" | "right"
        kind: str,
        condition: Optional[ast.Expr],
        columns: Sequence[RelColumn],
        null_aware: bool = False,
    ) -> None:
        super().__init__(columns)
        self.probe = probe
        self.remote = remote
        self.adapter = adapter
        self.page_rows = max(page_rows, 1)
        self.bound_side = bound_side
        self.kind = kind
        self.condition = condition
        self.null_aware = null_aware
        bind = remote.bind
        assert bind is not None
        self._bind = bind
        self._probe_key_kernel = compile_batch_expression(
            bind.probe_key, build_layout(probe.columns)
        )
        self._remote_sizer = make_batch_sizer(remote.columns)
        self._key_sizer = _column_sizer(bind.fragment_key.dtype)

    def children(self) -> List[PhysicalOperator]:
        return [self.probe]

    def describe(self) -> str:
        return (
            f"BindJoin({self.kind}, source={self.remote.source_name}, "
            f"key={self._bind.fragment_key.name})"
        )

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        probe_rows: List[Row] = []
        keys: Set[Any] = set()
        key_kernel = self._probe_key_kernel
        for batch in self.probe.iterate_batches(ctx):
            ctx.check_deadline()
            probe_rows.extend(batch)
            for value in key_kernel(batch):
                if value is not None:
                    keys.add(value)
        remote_rows: List[Row] = []
        try:
            for page in self._fetch_reduced_pages(ctx, keys):
                ctx.check_deadline(self.remote.source_name)
                remote_rows.extend(page)
        except SourceError as exc:
            # Graceful degradation mirrors ExchangeExec: the dead remote
            # side contributes no rows and the join proceeds (INNER drops
            # unmatched probe rows; LEFT pads them with NULLs).
            if ctx.options.on_source_failure != "partial":
                raise
            ctx.record_exclusion(exc.source_name, exc)
            remote_rows = []

        # Assemble the join with the original operand orientation.
        remote_stub = StaticRowsExec(remote_rows, self.remote.columns)
        probe_stub = StaticRowsExec(probe_rows, self.probe.columns)
        if self.bound_side == "right":
            left_op, right_op = probe_stub, remote_stub
            left_cols, right_cols = self.probe.columns, self.remote.columns
        else:
            left_op, right_op = remote_stub, probe_stub
            left_cols, right_cols = self.remote.columns, self.probe.columns
        keys_split = equi_join_keys(self.condition, left_cols, right_cols)
        if keys_split is not None:
            left_keys, right_keys, residual = keys_split
            join: PhysicalOperator = HashJoinExec(
                left_op,
                right_op,
                self.kind,
                left_keys,
                right_keys,
                ast.conjoin(residual),
                self.columns,
                self.null_aware,
            )
        else:
            join = NestedLoopJoinExec(
                left_op, right_op, self.kind, self.condition, self.columns
            )
        yield from join.iterate_batches(ctx)

    def _batch_fragment(self, batch: Sequence[Any]) -> Fragment:
        """The reduced fragment fetching one key batch."""
        bind = self._bind
        literals = tuple(
            ast.Literal(value, bind.fragment_key.dtype) for value in batch
        )
        predicate: ast.Expr
        if len(literals) == 1:
            predicate = ast.BinaryOp("=", bind.fragment_key.ref(), literals[0])
        else:
            predicate = ast.InList(bind.fragment_key.ref(), literals, False)
        return Fragment(
            self.remote.source_name,
            FilterOp(self.remote.fragment, predicate),
        )

    def _fetch_reduced_pages(
        self, ctx: ExecutionContext, keys: Set[Any]
    ) -> Iterator[Batch]:
        bind = self._bind
        ordered = sorted(keys, key=repr)
        ctx.add_metric("fragments_executed", 1)
        if not ordered:
            # Still report the (empty) round trip the mediator performs to
            # learn there is nothing to fetch? No request is sent at all:
            # an empty key set proves the join is empty without touching
            # the source.
            return
        batches = [
            ordered[start : start + bind.batch_size]
            for start in range(0, len(ordered), bind.batch_size)
        ]
        # One task per key batch, all submitted up front (workers fetch
        # them concurrently) and drained in order; each upload is charged
        # as its batch's fetch starts.
        scheduler = ctx.scheduler
        tasks = [
            scheduler.submit_fragment(
                self.adapter, self._batch_fragment(batch), self.page_rows,
                ctx, sizer=self._remote_sizer,
                on_start=partial(self._ship_keys, ctx, batch),
            )
            for batch in batches
        ]
        for task in tasks:
            yield from scheduler.stream_pages(task, ctx)

    def _ship_keys(self, ctx: ExecutionContext, batch: Sequence[Any]) -> None:
        """Charge one key batch's upload to the bound source."""
        ctx.add_metric("semijoin_batches", 1)
        ctx.charge_request(self.remote.source_name, self._key_sizer(batch))


class HashAggregateExec(PhysicalOperator):
    """Hash aggregation with vectorized evaluation and bucketed accumulation.

    Group keys and aggregate arguments are computed as whole columns per
    input page. Accumulation is *bucketed*: each page's rows are grouped
    by key once, then every accumulator ingests its group's values via a
    single bulk ``add_many``/``add_repeat`` call (a gathered slice, or
    the whole argument column when the page is single-group) instead of
    one ``add`` per row. Within every group the value order is exactly
    the global row order, so float SUM/AVG stay bit-identical to the
    row-at-a-time loop.
    """

    def __init__(self, plan: AggregateOp, child: PhysicalOperator) -> None:
        super().__init__(plan.output_columns)
        self.child = child
        self.plan = plan
        layout = build_layout(child.columns)
        self._group_kernels = [
            compile_batch_expression(e, layout)
            for e in plan.group_expressions
        ]
        self._argument_kernels = [
            compile_batch_expression(call.argument, layout)
            if call.argument is not None
            else None
            for call in plan.aggregates
        ]

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        groups: Dict[Any, List[Any]] = {}
        order: List[Any] = []
        aggregates = self.plan.aggregates
        single_key = len(self._group_kernels) == 1
        global_agg = not self._group_kernels

        for batch in self.child.iterate_batches(ctx):
            ctx.check_deadline()
            num_rows = len(batch)
            key_columns = [kernel(batch) for kernel in self._group_kernels]
            argument_columns = [
                kernel(batch) if kernel is not None else None
                for kernel in self._argument_kernels
            ]
            if global_agg:
                buckets: Dict[Any, Any] = {(): range(num_rows)}
                local_order: List[Any] = [()]
            else:
                # Scalar dict keys for the common single-key group-by;
                # transposed tuples otherwise (same ==/hash semantics as
                # the row engine's per-row key tuples).
                keys = (
                    key_columns[0] if single_key else list(zip(*key_columns))
                )
                buckets = {}
                local_order = []
                get_bucket = buckets.get
                for index, key in enumerate(keys):
                    bucket = get_bucket(key)
                    if bucket is None:
                        buckets[key] = [index]
                        local_order.append(key)
                    else:
                        bucket.append(index)
            for key in local_order:
                indices = buckets[key]
                state = groups.get(key)
                if state is None:
                    state = [make_accumulator(call) for call in aggregates]
                    groups[key] = state
                    order.append(key)
                count = len(indices)
                whole_page = count == num_rows
                for accumulator, column in zip(state, argument_columns):
                    if column is None:
                        accumulator.add_repeat(count)
                    elif whole_page:
                        accumulator.add_many(column)
                    else:
                        accumulator.add_many(
                            list(map(column.__getitem__, indices))
                        )
        width = len(self.columns)
        if not groups and global_agg:
            state = [make_accumulator(call) for call in aggregates]
            row = tuple(accumulator.result() for accumulator in state)
            yield Page.from_rows([row], width)
            return
        size = ctx.batch_size
        out: List[Row] = []
        for key in order:
            prefix = (key,) if single_key else key
            out.append(
                prefix
                + tuple(accumulator.result() for accumulator in groups[key])
            )
            if len(out) >= size:
                yield Page.from_rows(out, width)
                out = []
        if out:
            yield Page.from_rows(out, width)


class WindowExec(PhysicalOperator):
    """Materializes input and appends window-function columns."""

    def __init__(self, plan: "WindowOp", child: PhysicalOperator) -> None:
        super().__init__(plan.output_columns)
        self.child = child
        self.plan = plan

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        names = ", ".join(spec.function for spec in self.plan.specs)
        return f"Window({names})"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        from .fragments import apply_window

        rows = _materialize_rows(self.child, ctx)
        yield from chunk_rows(
            apply_window(rows, self.plan.child.output_columns, self.plan.specs),
            ctx.batch_size,
        )


class SortExec(PhysicalOperator):
    def __init__(
        self, child: PhysicalOperator, keys: Sequence[Tuple[ast.Expr, bool]]
    ) -> None:
        super().__init__(child.columns)
        self.child = child
        layout = build_layout(child.columns)
        self._key_fns = [compile_expression(expr, layout) for expr, _ in keys]
        self._directions = [ascending for _, ascending in keys]

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        rows = _materialize_rows(self.child, ctx)
        yield from chunk_rows(
            sort_rows(rows, self._key_fns, self._directions), ctx.batch_size
        )


class LimitExec(PhysicalOperator):
    def __init__(
        self, child: PhysicalOperator, limit: Optional[int], offset: int
    ) -> None:
        super().__init__(child.columns)
        self.child = child
        self.limit = limit
        self.offset = offset

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        remaining = self.limit
        to_skip = self.offset
        if remaining is not None and remaining <= 0:
            return  # LIMIT 0: nothing to pull at all
        for batch in self.child.iterate_batches(ctx):
            if to_skip > 0:
                if to_skip >= len(batch):
                    to_skip -= len(batch)
                    continue
                batch = batch[to_skip:]
                to_skip = 0
            if remaining is None:
                yield batch
                continue
            if len(batch) >= remaining:
                # The limit lands inside (or exactly at the end of) this
                # batch: emit the prefix and stop pulling the child.
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch


class DistinctExec(PhysicalOperator):
    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__(child.columns)
        self.child = child

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        seen: Set[Row] = set()
        for page in self.child.iterate_batches(ctx):
            keep: List[int] = []
            for index, row in enumerate(page):
                if row not in seen:
                    seen.add(row)
                    keep.append(index)
            if not keep:
                continue
            if len(keep) == page.num_rows:
                yield page
            else:
                yield page.take(keep)


class UnionExec(PhysicalOperator):
    def __init__(
        self,
        inputs: List[PhysicalOperator],
        columns: Sequence[RelColumn],
        pruned: Sequence[Tuple[str, str]] = (),
    ) -> None:
        super().__init__(columns)
        self.inputs = inputs
        #: ``(source, column)`` per branch left out because the column's
        #: exact statistics contradict the branch's pushed predicate.
        self.pruned = list(pruned)

    def children(self) -> List[PhysicalOperator]:
        return list(self.inputs)

    def describe(self) -> str:
        if not self.pruned:
            return "Union"
        by_column: Dict[str, List[str]] = {}
        for source, column in self.pruned:
            by_column.setdefault(column, []).append(source)
        reasons = "; ".join(
            f"{', '.join(sources)} by {column}"
            for column, sources in by_column.items()
        )
        return f"Union(pruned {reasons})"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        for child in self.inputs:
            yield from child.iterate_batches(ctx)


class SetDifferenceExec(PhysicalOperator):
    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        operation: str,
        columns: Sequence[RelColumn],
        all: bool = False,
    ) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        self.operation = operation
        self.all = all

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def describe(self) -> str:
        suffix = " ALL" if self.all else ""
        return f"SetDifference({self.operation}{suffix})"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        if self.all:
            from collections import Counter

            remaining = Counter(
                row
                for batch in self.right.iterate_batches(ctx)
                for row in batch
            )
            for page in self.left.iterate_batches(ctx):
                keep: List[int] = []
                for index, row in enumerate(page):
                    if remaining[row] > 0:
                        remaining[row] -= 1
                        if self.operation == "INTERSECT":
                            keep.append(index)
                    elif self.operation == "EXCEPT":
                        keep.append(index)
                if keep:
                    yield page.take(keep)
            return
        right_rows = {
            row
            for batch in self.right.iterate_batches(ctx)
            for row in batch
        }
        emitted: Set[Row] = set()
        for page in self.left.iterate_batches(ctx):
            keep = []
            for index, row in enumerate(page):
                if row in emitted:
                    continue
                member = row in right_rows
                if (self.operation == "EXCEPT") != member:
                    emitted.add(row)
                    keep.append(index)
            if keep:
                yield page.take(keep)


# ---------------------------------------------------------------------------
# physical planning
# ---------------------------------------------------------------------------


JOIN_ALGORITHMS = ("auto", "hash", "merge")


class PhysicalPlanner:
    """Turns an optimized logical plan into a physical operator tree.

    ``join_algorithm`` selects the equi-join implementation: ``auto``/
    ``hash`` use hash joins; ``merge`` forces sort-merge for INNER
    equi-joins (other kinds keep hash — merge variants of semi/outer joins
    offer nothing here and hash handles their NULL subtleties already).
    """

    def __init__(
        self,
        catalog: Catalog,
        join_algorithm: str = "auto",
    ) -> None:
        if join_algorithm not in JOIN_ALGORITHMS:
            raise PlanError(f"unknown join algorithm {join_algorithm!r}")
        self._catalog = catalog
        self._join_algorithm = join_algorithm

    @classmethod
    def from_options(
        cls, catalog: Catalog, options: "PlannerOptions"
    ) -> "PhysicalPlanner":
        """The physical planner a ``PlannerOptions`` selects — the one
        construction site, shared by the planning (plan-cache miss) and
        rebinding (plan-cache hit) paths so they cannot disagree."""
        return cls(catalog, join_algorithm=options.join_algorithm)

    def build(self, plan: LogicalPlan) -> PhysicalOperator:
        if isinstance(plan, RemoteQueryOp):
            if plan.bind is not None:
                raise PlanError(
                    "a bound remote fragment must be consumed by its join"
                )
            return self._exchange(plan)
        if isinstance(plan, ValuesOp):
            return StaticRowsExec(list(plan.rows), plan.columns)
        if isinstance(plan, ScanOp):
            raise PlanError(
                f"bare scan of {plan.table.name!r} survived pushdown; "
                "this is a planner bug"
            )
        if isinstance(plan, FilterOp):
            return FilterExec(self.build(plan.child), plan.predicate)
        if isinstance(plan, ProjectOp):
            return ProjectExec(
                self.build(plan.child), plan.expressions, plan.columns
            )
        if isinstance(plan, JoinOp):
            return self._join(plan)
        if isinstance(plan, AggregateOp):
            return HashAggregateExec(plan, self.build(plan.child))
        if isinstance(plan, WindowOp):
            return WindowExec(plan, self.build(plan.child))
        if isinstance(plan, SortOp):
            return SortExec(self.build(plan.child), plan.keys)
        if isinstance(plan, LimitOp):
            return LimitExec(self.build(plan.child), plan.limit, plan.offset)
        if isinstance(plan, DistinctOp):
            return DistinctExec(self.build(plan.child))
        if isinstance(plan, UnionOp):
            return self._union(plan)
        if isinstance(plan, SetDifferenceOp):
            return SetDifferenceExec(
                self.build(plan.left),
                self.build(plan.right),
                plan.operation,
                plan.columns,
                plan.all,
            )
        raise PlanError(f"cannot build physical plan for {type(plan).__name__}")

    # -- helpers ---------------------------------------------------------------

    def _union(self, plan: UnionOp) -> PhysicalOperator:
        """The union of the branches exact statistics cannot rule out.

        Runs on every build, so a plan-cache rebind is pruned for its own
        literals; a union with no branch left is empty rows of its width.
        """
        inputs: List[PhysicalOperator] = []
        pruned: List[Tuple[str, str]] = []
        for branch in plan.inputs:
            if isinstance(branch, RemoteQueryOp):
                column = self._excluding_column(branch)
                if column is not None:
                    pruned.append((branch.source_name, column))
                    continue
            inputs.append(self.build(branch))
        if not inputs:
            return StaticRowsExec([], plan.columns)
        return UnionExec(inputs, plan.columns, pruned)

    def _excluding_column(self, plan: RemoteQueryOp) -> Optional[str]:
        """A column whose exact ANALYZE min/max contradict the predicate of
        this unbound single-scan fragment, read with the fragment cache's
        own shape analysis; None when no such column is known."""
        if plan.bind is not None:
            return None
        fragment = Fragment(plan.source_name, plan.fragment)
        scans = fragment.scans()
        if len(scans) != 1:
            return None
        (scan,) = scans
        statistics = self._catalog.statistics(scan.table.name)
        if statistics is None or not statistics.exact:
            return None
        shape = fragment_shape(fragment)
        if shape is None:
            return None
        mapping = scan.effective_mapping
        for column in scan.columns:
            constraint = shape.constraints.get(mapping.remote_column(column.name))
            column_stats = statistics.column(column.name)
            if (
                constraint is not None
                and column_stats is not None
                and constraint.excludes_range(
                    column_stats.min_value, column_stats.max_value
                )
            ):
                return column.name
        return None

    def _exchange(self, plan: RemoteQueryOp) -> ExchangeExec:
        adapter = self._catalog.source(plan.source_name)
        page_rows = adapter.capabilities().page_rows
        return ExchangeExec(
            adapter,
            Fragment(plan.source_name, plan.fragment),
            plan.columns,
            page_rows,
        )

    def _join(self, plan: JoinOp) -> PhysicalOperator:
        bound_side: Optional[str] = None
        if isinstance(plan.right, RemoteQueryOp) and plan.right.bind is not None:
            bound_side = "right"
        elif isinstance(plan.left, RemoteQueryOp) and plan.left.bind is not None:
            bound_side = "left"
        if bound_side is not None:
            remote = plan.right if bound_side == "right" else plan.left
            probe_logical = plan.left if bound_side == "right" else plan.right
            assert isinstance(remote, RemoteQueryOp)
            adapter = self._catalog.source(remote.source_name)
            return BindJoinExec(
                probe=self.build(probe_logical),
                remote=remote,
                adapter=adapter,
                page_rows=adapter.capabilities().page_rows,
                bound_side=bound_side,
                kind=plan.kind,
                condition=plan.condition,
                columns=plan.output_columns,
                null_aware=plan.null_aware,
            )
        left = self.build(plan.left)
        right = self.build(plan.right)
        if plan.kind == "CROSS" or plan.condition is None:
            return NestedLoopJoinExec(
                left, right, plan.kind, plan.condition, plan.output_columns
            )
        keys = equi_join_keys(plan.condition, left.columns, right.columns)
        if keys is None:
            return NestedLoopJoinExec(
                left, right, plan.kind, plan.condition, plan.output_columns
            )
        left_keys, right_keys, residual = keys
        if self._join_algorithm == "merge" and plan.kind == "INNER":
            return MergeJoinExec(
                left,
                right,
                left_keys,
                right_keys,
                ast.conjoin(residual),
                plan.output_columns,
            )
        return HashJoinExec(
            left,
            right,
            plan.kind,
            left_keys,
            right_keys,
            ast.conjoin(residual),
            plan.output_columns,
            plan.null_aware,
        )
