"""Physical plan: batch-at-a-time operators with exchange at source boundaries.

The physical planner maps each logical node onto an operator implementation:

* ``RemoteQueryOp`` → :class:`ExchangeExec` (fragment execution at the
  source + paged transfer accounting on the simulated network), or — when a
  bind spec is attached — a :class:`BindJoinExec` at the consuming join;
* every join → :class:`HashJoinExec` (right side builds, left probes), on
  equi keys or, for the nested loop, on none;
* aggregation → :class:`HashAggregateExec`; sorts and windows
  concatenate their input into one page and order row positions by key
  columns computed with the same batch kernels;
* in a fragment run inside its source (:func:`run_fragment`), a
  ``ScanOp`` → :class:`ScanPagesExec` over the source's own pages.

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
from itertools import chain, compress, repeat
from operator import is_, is_not
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
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
from ..errors import PlanError, QueryTimeoutError, SourceError
from ..obs.trace import NULL_SPAN, NULL_TRACER
from ..sql import ast
from ..sources.network import EXACT_UNIT, SimulatedNetwork, exact_units
from .aggregates import make_accumulator
from .expressions import (
    build_layout,
    compile_batch_expression,
    compile_batch_predicate,
)
from .fragments import Fragment, equi_join_keys
from .pages import Page, pages_from_rows, repage, split_batches
from .logical import (
    AggregateCall,
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
    WindowSpec,
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
        self, source_name: str, page: Page, messages: int, sizer
    ) -> float:
        """Account one page moving from a source to the mediator.

        ``sizer`` is the fragment's memoized batch sizer (see
        :func:`make_batch_sizer`): it computes the page's wire size in one
        call from per-column dtype closures over the column vectors.

        Returns the simulated elapsed milliseconds of this transfer so the
        scheduler can attribute it to the fragment's virtual-clock lane.
        """
        payload = sizer(page)
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
    """Wire size of one value (the rule the column sizers memoize)."""
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


def concat_pages(
    ctx: "ExecutionContext", pages: Iterable[Batch], width: int
) -> Batch:
    """Drain a page stream into one page, one deadline check per page (the
    cancellation point of the blocking operators: join build, sort,
    window)."""
    columns: List[List[Any]] = [[] for _ in range(width)]
    rows = 0
    for page in pages:
        ctx.check_deadline()
        for column, values in zip(columns, page.columns):
            column.extend(values)
        rows += page.num_rows
    return Page(columns, rows)


def sort_positions(
    positions: List[int], key_columns: Sequence[List[Any]], directions: Sequence[bool]
) -> List[int]:
    """Sort row positions in place by key columns, and return them.

    One stable pass per key, least significant first, so mixed ASC/DESC
    keys compose; NULLs sort last ascending and first descending. A key
    column without NULLs sorts on its raw values; one with NULLs on
    ``(is NULL, value)`` pairs, so raw values never meet ``None``.
    """
    for column, ascending in reversed(list(zip(key_columns, directions))):
        keys = (
            [(value is None, 0 if value is None else value) for value in column]
            if None in column
            else column
        )
        positions.sort(key=keys.__getitem__, reverse=not ascending)
    return positions


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


#: A fragment's scan leaves, inside its source: fn(scan) -> the pages of
#: the scanned table, in the scan's column order.
ScanPages = Callable[[ScanOp], Iterable[Page]]


class ScanPagesExec(PhysicalOperator):
    """A scan leaf of a fragment run inside its source (:func:`run_fragment`):
    the source's own pages of the table, split to the batch size."""

    def __init__(self, scan: ScanOp, scan_pages: ScanPages) -> None:
        super().__init__(scan.columns)
        self.scan = scan
        self._scan_pages = scan_pages

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return split_batches(self._scan_pages(self.scan), ctx.batch_size)


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
    """The engine's one join: builds on the right input, probes with the left.

    Runs INNER/CROSS, LEFT, SEMI and ANTI (with NOT IN null-awareness) on
    equi keys or on none, plus an optional residual predicate, page at a
    time and column-wise throughout:

    * **Build.** The right pages are concatenated into one page
      (:func:`concat_pages`), and each non-NULL key maps to the list of
      its row positions in build order. A single key uses the key
      kernel's output vector directly (scalar dict keys); compound keys
      transpose with one ``zip(*…)``.
    * **Probe.** Each left page becomes paired (left position, right
      position) lists, in left order and then build order, and output
      pages gather both sides column by column. A residual runs as a
      batch kernel over the gathered candidate pairs; a pair survives
      only where it ``is True``. LEFT points each unmatched left row at
      one all-NULL row appended to the right columns; SEMI and ANTI keep
      the left positions that have (or lack) a passing pair, and without
      a residual they read the table directly.
    * **No keys.** Every left row pairs with every right row: the nested
      loop join, labelled ``NestedLoopJoin(kind)`` in EXPLAIN. Its probe
      takes left slices of about ``batch_size // right_rows`` rows, so a
      left page is never paired with the whole right side at once.
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
        self._left_key_kernels = [
            compile_batch_expression(k, left_layout) for k in left_keys
        ]
        self._right_key_kernels = [
            compile_batch_expression(k, right_layout) for k in right_keys
        ]
        combined = build_layout(list(left.columns) + list(right.columns))
        self._residual = (
            compile_batch_expression(residual, combined)
            if residual is not None
            else None
        )

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def describe(self) -> str:
        if self._left_key_kernels:
            return f"HashJoin({self.kind})"
        return f"NestedLoopJoin({self.kind})"

    @staticmethod
    def _extract_keys(kernels, batch: Batch) -> List[Any]:
        """The page's join keys: the raw key vector for a single key,
        transposed tuples for compound keys. A key with a NULL part is
        ``None`` either way."""
        if len(kernels) == 1:
            return kernels[0](batch)
        return [
            None if None in key else key
            for key in zip(*[kernel(batch) for kernel in kernels])
        ]

    def _build(
        self, ctx: ExecutionContext, pages: Iterable[Batch]
    ) -> Tuple[List[List[Any]], Dict[Any, List[int]], int, bool]:
        """``(right columns, key -> positions, right rows, saw a NULL key)``."""
        right = concat_pages(ctx, pages, len(self.right.columns))
        table: Dict[Any, List[int]] = {}
        null_key = False
        if self._right_key_kernels:
            setdefault = table.setdefault
            keys = self._extract_keys(self._right_key_kernels, right)
            for position, key in enumerate(keys):
                if key is None:
                    null_key = True
                else:
                    setdefault(key, []).append(position)
        return right.columns, table, right.num_rows, null_key

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return self.join_pages(
            ctx, self.left.iterate_batches(ctx), self.right.iterate_batches(ctx)
        )

    def join_pages(
        self,
        ctx: ExecutionContext,
        left_pages: Iterable[Batch],
        right_pages: Iterable[Batch],
    ) -> Iterator[Batch]:
        """Join a probe page stream against a build page stream: the right
        pages are drained first, then each left page is probed in turn."""
        right_columns, table, right_rows, null_key = self._build(
            ctx, right_pages
        )
        kind = self.kind
        if kind == "ANTI" and self.null_aware and null_key:
            return  # NOT IN with a NULL on the right: empty result
        # LEFT's unmatched rows point at one all-NULL right row.
        null_position = right_rows
        if kind == "LEFT":
            for column in right_columns:
                column.append(None)
        kernels = self._left_key_kernels
        residual = self._residual
        semi = kind == "SEMI"
        # NULL NOT IN (non-empty set) is never TRUE: such rows are dropped.
        drop_null_keys = kind == "ANTI" and self.null_aware and right_rows > 0
        # A keyless NOT IN keeps a left row only if every comparison is
        # FALSE: an unknown (NULL) pair drops it like a TRUE one.
        passes, verdict = (
            (is_not, False)
            if kind == "ANTI" and self.null_aware and not kernels
            else (is_, True)
        )
        get = table.get
        size = ctx.batch_size

        def gather(page: Batch, left_positions, right_positions) -> Batch:
            return Page(
                [list(map(c.__getitem__, left_positions)) for c in page.columns]
                + [list(map(c.__getitem__, right_positions)) for c in right_columns],
                len(left_positions),
            )

        def emit(page: Batch, left_positions, right_positions, keys):
            """The output page for one page's candidate pairs, or None."""
            if residual is not None and left_positions:
                candidates = gather(page, left_positions, right_positions)
                passing = list(map(passes, residual(candidates), repeat(verdict)))
                if kind in ("INNER", "CROSS"):
                    count = passing.count(True)
                    if count == candidates.num_rows:
                        return candidates
                    return Page(
                        [list(compress(c, passing)) for c in candidates.columns],
                        count,
                    )
                left_positions = list(compress(left_positions, passing))
                right_positions = list(compress(right_positions, passing))
            if kind in ("SEMI", "ANTI"):
                matched = set(left_positions)
                if drop_null_keys and keys is not None:
                    matched.update(
                        index for index, key in enumerate(keys) if key is None
                    )
                keep = [
                    index
                    for index in range(page.num_rows)
                    if (index in matched) == semi
                ]
                if len(keep) == page.num_rows:
                    return page
                return page.take(keep) if keep else None
            if kind == "LEFT":
                left_positions, right_positions = _pad_unmatched(
                    left_positions, right_positions, page.num_rows, null_position
                )
            if not left_positions:
                return None
            return gather(page, left_positions, right_positions)

        def probe_keyed(page: Batch) -> Optional[Batch]:
            keys = self._extract_keys(kernels, page)
            if residual is None and kind in ("SEMI", "ANTI"):
                if drop_null_keys:
                    keep = [
                        index
                        for index, key in enumerate(keys)
                        if key is not None and get(key) is None
                    ]
                else:
                    keep = [
                        index
                        for index, matches in enumerate(map(get, keys))
                        if (matches is not None) == semi
                    ]
                if len(keep) == page.num_rows:
                    return page
                return page.take(keep) if keep else None
            left_positions: List[int] = []
            right_positions: List[int] = []
            add_left = left_positions.append
            add_right = right_positions.append
            # Unique keys take the append path; a key with many build rows
            # extends both lists at once.
            for index, matches in enumerate(map(get, keys)):
                if matches is None:
                    continue
                if len(matches) == 1:
                    add_left(index)
                    add_right(matches[0])
                else:
                    left_positions += [index] * len(matches)
                    right_positions += matches
            return emit(page, left_positions, right_positions, keys)

        every_right = list(range(right_rows))

        def probe_keyless(page: Batch) -> Optional[Batch]:
            if residual is None and kind in ("SEMI", "ANTI"):
                return page if (right_rows > 0) == semi else None
            left_positions = list(
                chain.from_iterable(
                    repeat(index, right_rows) for index in range(page.num_rows)
                )
            )
            return emit(page, left_positions, every_right * page.num_rows, None)

        probe = probe_keyed if kernels else probe_keyless
        # A keyless probe pairs each left row with every right row, so it
        # takes left slices of about one batch of pairs each.
        step = max(size // right_rows, 1) if right_rows else size
        for page in left_pages:
            ctx.check_deadline()
            for piece in (page,) if kernels else split_batches([page], step):
                out = probe(piece)
                if out is not None:
                    yield from split_batches([out], size)


def _pad_unmatched(
    left_positions: List[int],
    right_positions: List[int],
    rows: int,
    null_position: int,
) -> Tuple[List[int], List[int]]:
    """LEFT join pairs: every left position without a pair gets one pair
    with ``null_position``, in left order (``left_positions`` ascends)."""
    if len(set(left_positions)) == rows:
        return left_positions, right_positions
    padded_left: List[int] = []
    padded_right: List[int] = []
    cursor, total = 0, len(left_positions)
    for index in range(rows):
        start = cursor
        while cursor < total and left_positions[cursor] == index:
            cursor += 1
        if cursor > start:
            padded_left += left_positions[start:cursor]
            padded_right += right_positions[start:cursor]
        else:
            padded_left.append(index)
            padded_right.append(null_position)
    return padded_left, padded_right


def join_operator(
    left: PhysicalOperator,
    right: PhysicalOperator,
    kind: str,
    condition: Optional[ast.Expr],
    columns: Sequence[RelColumn],
    null_aware: bool = False,
) -> HashJoinExec:
    """The join of ``left`` and ``right`` on ``condition``: its equi keys
    plus a residual, or no keys and the whole condition (CROSS joins and
    conditions without an equi conjunct)."""
    keys = None
    if kind != "CROSS":
        keys = equi_join_keys(condition, left.columns, right.columns)
    if keys is None:
        return HashJoinExec(
            left, right, kind, [], [], condition, columns, null_aware
        )
    left_keys, right_keys, residual = keys
    return HashJoinExec(
        left,
        right,
        kind,
        left_keys,
        right_keys,
        ast.conjoin(residual),
        columns,
        null_aware,
    )


class BindJoinExec(PhysicalOperator):
    """Semijoin-reduced join: ship probe keys, fetch only matching rows.

    ``bound_side`` says which input is the reduced remote fragment; the
    other input's pages are collected first to produce the key list, then
    both sides' pages go to one :class:`HashJoinExec`, built at plan time.
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
        bind = remote.bind
        assert bind is not None
        self._bind = bind
        self._probe_key_kernel = compile_batch_expression(
            bind.probe_key, build_layout(probe.columns)
        )
        self._remote_sizer = make_batch_sizer(remote.columns)
        self._key_sizer = _column_sizer(bind.fragment_key.dtype)
        # The join in the original operand orientation; the remote side is
        # a schema-only placeholder, its pages arrive at run time.
        remote_side = PhysicalOperator(remote.columns)
        if bound_side == "right":
            left, right = probe, remote_side
        else:
            left, right = remote_side, probe
        self._join = join_operator(left, right, kind, condition, columns, null_aware)

    def children(self) -> List[PhysicalOperator]:
        return [self.probe]

    def describe(self) -> str:
        return (
            f"BindJoin({self.kind}, source={self.remote.source_name}, "
            f"key={self._bind.fragment_key.name})"
        )

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        probe_pages: List[Batch] = []
        keys: Set[Any] = set()
        key_kernel = self._probe_key_kernel
        for batch in self.probe.iterate_batches(ctx):
            ctx.check_deadline()
            probe_pages.append(batch)
            keys.update(key_kernel(batch))
        keys.discard(None)
        remote_pages: List[Batch] = []
        try:
            for page in self._fetch_reduced_pages(ctx, keys):
                ctx.check_deadline(self.remote.source_name)
                remote_pages.append(page)
        except SourceError as exc:
            # Graceful degradation mirrors ExchangeExec: the dead remote
            # side contributes no rows and the join proceeds (INNER drops
            # unmatched probe rows; LEFT pads them with NULLs).
            if ctx.options.on_source_failure != "partial":
                raise
            ctx.record_exclusion(exc.source_name, exc)
            remote_pages = []
        if self.bound_side == "right":
            yield from self._join.join_pages(ctx, probe_pages, remote_pages)
        else:
            yield from self._join.join_pages(ctx, remote_pages, probe_pages)

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
    """Materializes input and appends one column per window spec.

    The input is concatenated into one page and every spec's partition,
    order and argument columns are computed over it by batch kernels.
    Rows group into partitions by their partition-key tuples; a ranking
    function orders each partition's positions with :func:`sort_positions`,
    an aggregate folds the partition's argument values in input order.
    Output rows keep the input order.
    """

    def __init__(self, plan: "WindowOp", child: PhysicalOperator) -> None:
        super().__init__(plan.output_columns)
        self.child = child
        self.plan = plan
        layout = build_layout(child.columns)
        self._kernels = [
            (
                [compile_batch_expression(e, layout) for e in spec.partition_by],
                [compile_batch_expression(e, layout) for e, _ in spec.order_keys],
                [ascending for _, ascending in spec.order_keys],
                compile_batch_expression(spec.argument, layout)
                if spec.argument is not None
                else None,
            )
            for spec in plan.specs
        ]

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        names = ", ".join(spec.function for spec in self.plan.specs)
        return f"Window({names})"

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        page = concat_pages(
            ctx, self.child.iterate_batches(ctx), len(self.child.columns)
        )
        columns = list(page.columns)
        for spec, kernels in zip(self.plan.specs, self._kernels):
            columns.append(self._spec_values(spec, kernels, page))
        yield from split_batches(
            [Page(columns, page.num_rows)], ctx.batch_size
        )

    @staticmethod
    def _spec_values(spec: WindowSpec, kernels, page: Batch) -> List[Any]:
        function = spec.function
        partition_kernels, order_kernels, directions, argument_kernel = kernels
        rows = page.num_rows
        partitions: Dict[Row, List[int]] = {}
        keys = (
            zip(*[kernel(page) for kernel in partition_kernels])
            if partition_kernels
            else repeat((), rows)
        )
        for index, key in enumerate(keys):
            partitions.setdefault(key, []).append(index)
        values: List[Any] = [None] * rows
        if function in ("ROW_NUMBER", "RANK", "DENSE_RANK"):
            order_columns = [kernel(page) for kernel in order_kernels]
            for indexes in partitions.values():
                ordered = sort_positions(list(indexes), order_columns, directions)
                previous_key: Any = object()
                rank = dense = 0
                for position, index in enumerate(ordered, start=1):
                    current_key = tuple(column[index] for column in order_columns)
                    if current_key != previous_key:
                        rank = position
                        dense += 1
                        previous_key = current_key
                    if function == "ROW_NUMBER":
                        values[index] = position
                    elif function == "RANK":
                        values[index] = rank
                    else:
                        values[index] = dense
            return values
        call = AggregateCall(function, spec.argument, False)
        arguments = argument_kernel(page) if argument_kernel is not None else None
        for indexes in partitions.values():
            accumulator = make_accumulator(call)
            if arguments is None:
                accumulator.add_repeat(len(indexes))
            else:
                accumulator.add_many(list(map(arguments.__getitem__, indexes)))
            result = accumulator.result()
            for index in indexes:
                values[index] = result
        return values


class SortExec(PhysicalOperator):
    """Full in-memory sort: the input is concatenated into one page, the
    key columns are computed over it by batch kernels, row positions are
    ordered by :func:`sort_positions`, and the output gathers them."""

    def __init__(
        self, child: PhysicalOperator, keys: Sequence[Tuple[ast.Expr, bool]]
    ) -> None:
        super().__init__(child.columns)
        self.child = child
        layout = build_layout(child.columns)
        self._key_kernels = [
            compile_batch_expression(expr, layout) for expr, _ in keys
        ]
        self._directions = [ascending for _, ascending in keys]

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def iterate_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        page = concat_pages(ctx, self.child.iterate_batches(ctx), len(self.columns))
        order = sort_positions(
            list(range(page.num_rows)),
            [kernel(page) for kernel in self._key_kernels],
            self._directions,
        )
        size = ctx.batch_size
        for start in range(0, page.num_rows, size):
            yield page.take(order[start : start + size])


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


class PhysicalPlanner:
    """Turns an optimized logical plan into a physical operator tree.

    At the mediator every scan must sit inside a fragment by now, so a
    bare ``ScanOp`` is a planner bug. Given ``scan_pages``, the planner
    builds a fragment for :func:`run_fragment` instead, and scans become
    :class:`ScanPagesExec` leaves.
    """

    def __init__(
        self, catalog: Optional[Catalog], scan_pages: Optional[ScanPages] = None
    ) -> None:
        self._catalog = catalog
        self._scan_pages = scan_pages

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
            if self._scan_pages is not None:
                return ScanPagesExec(plan, self._scan_pages)
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
        return join_operator(
            self.build(plan.left),
            self.build(plan.right),
            plan.kind,
            plan.condition,
            plan.output_columns,
            plan.null_aware,
        )


def run_fragment(
    plan: LogicalPlan, scan_pages: ScanPages, page_rows: int
) -> Iterator[Page]:
    """Run a fragment inside its source, on the engine's own operators.

    For wrappers whose native system has no query engine (in-memory
    tables, parsed files): ``scan_pages(scan)`` yields the pages of one
    scan leaf's table in the scan's column order, and everything above
    the scans runs on the same operators and kernels as the mediator. The
    operators run on a local :class:`ExecutionContext` that charges no
    network and has no deadline, ``page_rows`` rows per batch. The result
    follows the adapter page contract: full ``page_rows`` pages, then
    exactly one final partial — possibly empty — page.
    """
    from .planner import PlannerOptions

    page_rows = max(page_rows, 1)
    root = PhysicalPlanner(None, scan_pages).build(plan)
    context = ExecutionContext(
        None, None, PlannerOptions(batch_size=page_rows)  # type: ignore[arg-type]
    )
    return repage(root.iterate_batches(context), page_rows, len(root.columns))
