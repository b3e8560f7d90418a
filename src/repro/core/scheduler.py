"""Fragment scheduler: the one executor of every fragment fetch.

How many of a query's subqueries run at once is a runtime choice that
must not shape the plan, so it lives here alone (Volcano's *exchange*).
Every execution context carries one :class:`FragmentScheduler`; exchanges
and bind-join key batches submit tasks to it and drain their pages in
order. Without a timeout or hedging and at ``max_parallel_fragments=1`` a
task runs lazily on the caller's thread; otherwise each task gets a
daemon worker thread, pages stream back through bounded queues, and a
global plus per-source concurrency cap bounds the fan-out.

Every task, on either executor, runs inside one **robustness envelope**,
the :func:`fetch_pages` generator:

* **health routing** — a fragment may be dispatched to a markedly
  healthier replica (:func:`health_route`);
* **circuit breaker** (:class:`CircuitBreaker`) — consecutive failures trip
  a per-source breaker; further calls fail fast (or reroute to a registered
  replica via :func:`replica_fallback`) until a reset period elapses, after
  which a single half-open probe decides whether to close it again;
* **retry with exponential backoff + jitter** (:func:`retry_delay_ms`) — a
  fragment is re-issued only while no page has reached the consumer, so a
  retry can never duplicate rows;
* **health accounting** — page latencies and outcomes feed the source's
  health tracker.

The worker executor adds what needs a second thread: the no-progress
**timeout** (a fragment that makes no progress for ``fragment_timeout_ms``
raises :class:`~repro.errors.SourceError` instead of hanging the query; the
stuck worker is abandoned, threads are daemons) and first-page hedging.
Both executors return bit-identical rows: each task's page order is
preserved and operators drain tasks in the same order — only wall-clock
time and the interleaving of network charges change.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import Any, Dict, Generator, Iterator, List, Optional, Set, Tuple

from ..errors import SourceError
from ..obs.trace import NULL_SPAN
from .fragments import Fragment
from .logical import ScanOp, transform_plan
from .pages import Page

#: Pages buffered per fragment before its producer blocks (backpressure).
QUEUE_DEPTH_PAGES = 8

#: Poll interval for cancellation-aware blocking operations (seconds).
_POLL_S = 0.02

#: Real-time sleep hook; tests patch this to observe the backoff schedule.
_default_sleep = time.sleep


def sleep_ms(ms: float) -> None:
    """Sleep for a backoff delay (routed through the patchable hook)."""
    if ms > 0:
        _default_sleep(ms / 1000.0)


# ---------------------------------------------------------------------------
# query deadline
# ---------------------------------------------------------------------------


class Deadline:
    """A per-query wall-clock budget for cooperative cancellation.

    Started by the mediator before planning when
    ``PlannerOptions.deadline_ms > 0`` and carried on the execution
    context into both of the scheduler's executors. Nothing preempts:
    operators *check* the deadline at page boundaries, retry decisions
    refuse delays that cannot finish in budget, and queue waits are sliced
    so a consumer blocked on a slow producer still notices expiry
    promptly.

    The clock is injectable for tests; the budget is real milliseconds
    (the simulated network's virtual clock measures *cost*, not elapsed
    wall time, so deadlines bound the latter).
    """

    __slots__ = ("budget_ms", "_clock", "_start")

    def __init__(self, budget_ms: float, clock=time.monotonic) -> None:
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._start = clock()

    def elapsed_ms(self) -> float:
        return (self._clock() - self._start) * 1000.0

    def remaining_ms(self) -> float:
        return self.budget_ms - self.elapsed_ms()

    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0


# ---------------------------------------------------------------------------
# retry backoff
# ---------------------------------------------------------------------------


def retry_delay_ms(options, attempt: int, rng: Optional[random.Random] = None) -> float:
    """The delay slept before the ``attempt``-th fragment retry (1-based).

    ``retry_backoff_ms * retry_backoff_multiplier**(attempt-1)`` capped at
    ``retry_backoff_max_ms``, then spread uniformly over
    ``±retry_jitter`` of itself so simultaneous retries against a
    struggling source de-synchronize. ``retry_backoff_ms=0`` (the default)
    retries immediately. How many retries a fragment gets is the
    mediator's budget (``ExecutionContext.retries``), not an option.
    """
    if options.retry_backoff_ms <= 0:
        return 0.0
    base = min(
        options.retry_backoff_ms * options.retry_backoff_multiplier ** (attempt - 1),
        options.retry_backoff_max_ms,
    )
    jitter = options.retry_jitter
    if base <= 0 or jitter <= 0:
        return base
    u = (rng or random).random()
    return base * (1.0 - jitter + 2.0 * jitter * u)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-source failure gate with the classic three-state machine.

    CLOSED counts consecutive failures; at ``failure_threshold`` it trips
    OPEN and every call fails fast. After ``reset_ms`` the breaker moves to
    HALF_OPEN and admits exactly one probe: success closes it, failure
    re-opens it (another trip). Thread-safe; breakers outlive individual
    queries so repeated failing queries accumulate toward the trip.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_ms: float = 30000.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = max(failure_threshold, 1)
        self.reset_ms = reset_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trip_count = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN:
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            if elapsed_ms >= self.reset_ms:
                self._state = HALF_OPEN
                self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now? (HALF_OPEN admits a single probe.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> bool:
        """Count one failure; returns True when it trips the breaker open."""
        with self._lock:
            self._maybe_half_open()
            self._consecutive_failures += 1
            tripping = self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            )
            if tripping:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probing = False
                self.trip_count += 1
            return tripping

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (diagnostics/`\\health`)."""
        with self._lock:
            return self._consecutive_failures


class CircuitBreakerRegistry:
    """Per-source breakers, created lazily, shared by all of a mediator's
    queries (state must persist across queries for trips to mean anything)."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker_for(
        self, source_name: str, failure_threshold: int, reset_ms: float
    ) -> CircuitBreaker:
        key = source_name.lower()
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(failure_threshold, reset_ms, self._clock)
                self._breakers[key] = breaker
            return breaker

    def get(self, source_name: str) -> Optional[CircuitBreaker]:
        with self._lock:
            return self._breakers.get(source_name.lower())

    def trip_count(self) -> int:
        with self._lock:
            return sum(b.trip_count for b in self._breakers.values())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Current state, trip count, and recent failure count of every
        known breaker."""
        with self._lock:
            breakers = dict(self._breakers)
        return {
            source: {
                "state": breaker.state,
                "trips": breaker.trip_count,
                "failures": breaker.consecutive_failures,
            }
            for source, breaker in sorted(breakers.items())
        }

    def remove(self, source_name: str) -> bool:
        """Forget one source's breaker (the source left the federation);
        True if there was one. A later re-register starts closed."""
        with self._lock:
            return self._breakers.pop(source_name.lower(), None) is not None

    def reset(self) -> None:
        """Forget all breaker state (e.g. after repairing a federation)."""
        with self._lock:
            self._breakers.clear()


# ---------------------------------------------------------------------------
# replica fallback
# ---------------------------------------------------------------------------


def _retarget_candidates(fragment: Fragment):
    """Alternative sources a fragment could be served by, with its scans.

    Returns ``(scans, sorted_source_keys)``: the fragment's scan nodes and
    every source (other than the current one) on which *every* scan has a
    registered copy. Empty candidates means the fragment is pinned.
    """
    scans = [node for node in fragment.plan.walk() if isinstance(node, ScanOp)]
    if not scans:
        return scans, []
    current = fragment.source_name.lower()
    shared: Optional[Set[str]] = None
    for scan in scans:
        sources = {m.source.lower() for m in scan.table.all_mappings()} - {current}
        shared = sources if shared is None else shared & sources
    return scans, sorted(shared or ())


def _retarget(catalog, fragment: Fragment, scans, key: str):
    """Rebuild a fragment with every scan stamped onto source ``key``'s
    mapping (column identities are preserved, so the fragment's output
    layout is unchanged). Returns ``(source_name, adapter, fragment)``.
    """
    chosen: Dict[int, Any] = {}
    for scan in scans:
        chosen[id(scan)] = next(
            m for m in scan.table.all_mappings() if m.source.lower() == key
        )

    def remap(node):
        if isinstance(node, ScanOp) and id(node) in chosen:
            return ScanOp(
                node.table, node.binding_name, node.columns,
                mapping=chosen[id(node)],
            )
        return None

    plan = transform_plan(fragment.plan, remap)
    display = chosen[id(scans[0])].source
    return display, catalog.source(display), Fragment(display, plan)


def replica_fallback(catalog, fragment: Fragment, breakers):
    """Re-target a fragment at a replica site when its source's breaker is
    open.

    Succeeds only when *every* scan in the fragment has a registered copy on
    one common alternative source whose breaker (if any) admits calls; the
    plan is rebuilt with each scan stamped onto that source's mapping.
    Returns ``(source_name, adapter, fragment)`` or None.

    The fallback assumes the replica's capability envelope covers the
    fragment (true for same-kind replicas, the normal case); a weaker
    replica rejects the fragment with a CapabilityError, which surfaces
    like any other source failure.
    """
    scans, candidates = _retarget_candidates(fragment)
    for key in candidates:
        breaker = breakers.get(key) if breakers is not None else None
        if breaker is not None and not breaker.allow():
            continue
        return _retarget(catalog, fragment, scans, key)
    return None


def hedge_target(catalog, fragment: Fragment, breakers, health):
    """Pick the replica a hedged duplicate fetch should race against.

    Candidates are the fragment's common alternative sources whose
    breakers admit calls, ranked by health score (lower = healthier;
    unknown sources rank last, in name order, so a cold federation still
    hedges deterministically). Returns ``(source_name, adapter,
    fragment)`` or None when the fragment has nowhere else to go.
    """
    scans, candidates = _retarget_candidates(fragment)
    admitted = []
    for key in candidates:
        breaker = breakers.get(key) if breakers is not None else None
        if breaker is not None and not breaker.allow():
            continue
        admitted.append(key)
    if not admitted:
        return None
    if health is not None:
        admitted.sort(
            key=lambda key: (
                (0, score) if (score := health.score(key)) is not None
                else (1, 0.0)
            )
        )
    return _retarget(catalog, fragment, scans, admitted[0])


#: A replica must beat the primary's health score by this factor before a
#: dispatch is proactively rerouted (hysteresis against route flapping).
HEALTH_ROUTE_MARGIN = 1.25


def health_route(catalog, fragment: Fragment, breakers, health):
    """Proactively re-target a fragment at its healthiest serving source.

    Consulted at dispatch when ``health_routing`` is armed: if a replica's
    health score beats the primary's by :data:`HEALTH_ROUTE_MARGIN`, the
    fragment is dispatched there instead of waiting for the primary's
    breaker to open. Unknown scores (cold sources) never trigger a
    reroute — reactive fallback still covers them. Returns
    ``(source_name, adapter, fragment)`` or None to keep the primary.
    """
    if health is None:
        return None
    primary_score = health.score(fragment.source_name)
    if primary_score is None:
        return None
    scans, candidates = _retarget_candidates(fragment)
    best = None
    for key in candidates:
        breaker = breakers.get(key) if breakers is not None else None
        if breaker is not None and not breaker.allow():
            continue
        score = health.score(key)
        if score is None:
            continue
        if best is None or score < best[0]:
            best = (score, key)
    if best is None or best[0] * HEALTH_ROUTE_MARGIN >= primary_score:
        return None
    return _retarget(catalog, fragment, scans, best[1])


# ---------------------------------------------------------------------------
# the fetch envelope
# ---------------------------------------------------------------------------


def _never() -> bool:
    return False


def _acquire(semaphore: threading.Semaphore, cancelled) -> bool:
    """Take an admission slot, polling so cancellation is noticed promptly;
    False once ``cancelled()`` holds."""
    while not cancelled():
        if semaphore.acquire(timeout=_POLL_S):
            return True
    return False


def fetch_pages(
    ctx,
    adapter,
    fragment: Fragment,
    page_rows: int,
    span,
    seed: int,
    *,
    sizer,
    clock=time.monotonic,
    slot_for=None,
    cancelled=_never,
    route: bool = True,
    on_route=None,
    on_charge=None,
) -> Generator[Page, None, None]:
    """Fetch one fragment's non-empty pages inside the robustness envelope.

    The only caller of ``ctx.execute_pages``. In order: health routing
    (when ``route`` and ``health_routing`` are set), then per attempt the
    query-deadline gate, the breaker gate with :func:`replica_fallback`,
    the page loop (health latency per page, one network charge per page
    including the final empty one), and on a :class:`SourceError` before
    the first yielded page a :func:`retry_delay_ms` backoff and re-issue
    (at most ``ctx.retries`` times).
    The last attempt's outcome feeds the breaker and health tracker.
    Errors propagate to the consumer.

    Only :class:`FragmentScheduler` calls it, for inline and worker tasks
    alike; what differs between them comes in as arguments: ``span`` is
    the task's fragment span (events and attributes only — the caller ends
    it); the retry jitter stream is ``Random(f"{source}:{seed}")`` over the
    dispatched source, where ``seed`` is the task's submission index on
    both executors; ``clock`` times page latencies; ``slot_for(source)``
    returns a per-source admission semaphore held across one attempt;
    ``cancelled()`` makes the generator return quietly, checked before
    each attempt and before charging each page; ``on_route(fragment)``
    learns the fragment health routing dispatched instead;
    ``on_charge(page, elapsed_ms)`` sees each charged page with its
    simulated transfer time.
    """
    options = ctx.options
    health = ctx.health
    deadline = ctx.deadline
    source = fragment.source_name
    if route and options.health_routing:
        routed = health_route(ctx.catalog, fragment, ctx.breakers, health)
        if routed is not None:
            ctx.trace_span.event(
                "health-route", primary=source, replica=routed[0],
            )
            source, adapter, fragment = routed
            span.set_attribute("source", source)
            ctx.add_metric("health_reroutes", 1)
            if on_route is not None:
                on_route(fragment)
    rng = random.Random(f"{source}:{seed}")
    attempt = 0
    while not cancelled():
        if deadline is not None and deadline.expired():
            span.event("deadline", budget_ms=deadline.budget_ms)
            raise ctx.deadline_error(source)
        breaker = ctx.breaker_for(source)
        if breaker is not None and not breaker.allow():
            fallback = replica_fallback(ctx.catalog, fragment, ctx.breakers)
            if fallback is None:
                span.set_attribute("error", "circuit breaker open")
                raise SourceError(
                    source,
                    "circuit breaker open; no healthy replica registered "
                    "(failing fast)",
                )
            source, adapter, fragment = fallback
            ctx.add_metric("breaker_fallbacks", 1)
            span.event("replica-fallback", source=source)
            span.set_attribute("source", source)
            continue  # re-evaluate the replica's own breaker
        slot = slot_for(source) if slot_for is not None else None
        if slot is not None and not _acquire(slot, cancelled):
            return
        produced = False
        try:
            # The adapter's page contract: zero or more full pages, then
            # exactly one final partial (possibly empty) page. Every page
            # — including the trailing empty one that says "result
            # complete" — costs one response message on the wire.
            page_started = clock()
            for page in ctx.execute_pages(adapter, fragment, page_rows):
                if health is not None:
                    health.observe_latency(
                        source, (clock() - page_started) * 1000.0
                    )
                if cancelled():
                    return
                elapsed_ms = ctx.charge_transfer(source, page, 1, sizer)
                if on_charge is not None:
                    on_charge(page, elapsed_ms)
                span.event("page", rows=len(page))
                if page:
                    yield page
                    produced = True
                # Restart the fetch clock after the consumer has taken the
                # page, so downstream work and queue backpressure are never
                # charged to the source's latency profile.
                page_started = clock()
        except SourceError as exc:
            if health is not None:
                health.record_error(source)
            if breaker is not None and breaker.record_failure():
                ctx.add_metric("breaker_trips", 1)
                span.event("breaker-trip", source=source)
            # Retry is only safe before any row reached the consumer, only
            # for transient failures, and only when the backoff delay
            # still fits inside the query's deadline budget.
            retryable = getattr(exc, "retryable", True)
            if produced or not retryable or attempt >= ctx.retries:
                span.set_attribute("error", repr(exc))
                if not retryable:
                    span.set_attribute("permanent", True)
                raise
            attempt += 1
            delay = retry_delay_ms(options, attempt, rng)
            if deadline is not None and deadline.remaining_ms() <= delay:
                span.event(
                    "retry-abandoned", attempt=attempt,
                    delay_ms=round(delay, 3),
                    remaining_ms=round(deadline.remaining_ms(), 3),
                )
                span.set_attribute("error", repr(exc))
                raise
            ctx.add_metric("fragment_retries", 1)
            span.event("retry", attempt=attempt, delay_ms=round(delay, 3))
            sleep_ms(delay)
            continue
        except Exception as exc:  # planner/adapter bugs: annotate, re-raise
            span.set_attribute("error", repr(exc))
            raise
        finally:
            if slot is not None:
                slot.release()
        if breaker is not None:
            breaker.record_success()
        if health is not None:
            health.record_success(source)
        return


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


class _FragmentTask:
    """One fragment fetch, run inline by the thread that pulls it."""

    __slots__ = (
        "index", "adapter", "fragment", "page_rows", "sizer", "hedge",
        "on_start", "virtual_ms", "span",
    )

    def __init__(
        self,
        index: int,
        adapter,
        fragment: Fragment,
        page_rows: int,
        sizer,
        hedge: bool = False,
        on_start=None,
    ):
        self.index = index
        self.adapter = adapter
        self.fragment = fragment
        self.page_rows = page_rows
        self.sizer = sizer
        #: A hedged duplicate fetch racing a straggling primary; its
        #: traffic is charged normally but also tallied under hedges_*.
        self.hedge = hedge
        self.on_start = on_start
        self.virtual_ms = 0.0
        # Trace span, opened where the fetch runs; the consumer may close
        # a worker's span on timeout — Span.end is race-safe.
        self.span = NULL_SPAN


class _WorkerTask(_FragmentTask):
    """A fragment fetch on its own producer thread, feeding a queue."""

    __slots__ = ("queue", "cancelled", "done", "thread")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue: "queue.Queue" = queue.Queue(maxsize=QUEUE_DEPTH_PAGES)
        self.cancelled = False
        self.done = False
        self.thread: Optional[threading.Thread] = None

    def put(self, item, stop: threading.Event) -> bool:
        """Enqueue one item, giving up if the task or query is cancelled."""
        while not (stop.is_set() or self.cancelled):
            try:
                self.queue.put(item, timeout=_POLL_S)
                return True
            except queue.Full:
                continue
        return False


class FragmentScheduler:
    """Runs one query's fragment fetches, inline or on worker threads.

    The query's options pick the executor at construction: worker
    threads when the degree is above 1, or when a fragment timeout,
    adaptive timeout or hedging needs a producer thread to wait on;
    otherwise inline tasks. Callers see one interface either way. At
    degree > 1 ``prestart`` launches every independent exchange before
    iteration begins, so all sources transfer concurrently. Consumers
    drain each task's pages in order, which preserves the exact row order
    whatever the degree.

    Workers are capped twice: ``max_parallel_fragments`` globally and
    ``max_parallel_per_source`` per component system (autonomous sources
    ration their own admission; the mediator must not stampede one site).
    They are daemons, *abandoned*, not joined, when a fragment times out —
    the only safe option against a hung source.
    """

    def __init__(self, options, clock=time.monotonic) -> None:
        self._options = options
        self._clock = clock
        degree = options.max_parallel_fragments
        self._parallel = degree > 1
        # Timeouts need a producer thread to wait on even at degree 1, and
        # hedging races two producer streams against each other.
        self._threaded = (
            self._parallel
            or options.fragment_timeout_ms > 0
            or options.adaptive_timeout
            or options.hedge_fragments
        )
        #: How fragments run, as metrics and fragment spans report it.
        self.mode = (
            f"parallel({degree})" if self._parallel
            else "sequential+timeout" if self._threaded else "sequential"
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._global_slots = threading.Semaphore(degree)
        self._source_slots: Dict[str, threading.Semaphore] = {}
        self._by_exchange: Dict[int, _FragmentTask] = {}
        self._tasks: List[_FragmentTask] = []
        self._in_flight = 0
        self.peak_in_flight = 0

    # -- submission ---------------------------------------------------------

    def prestart(self, exchanges, ctx) -> None:
        """Launch every independent exchange's fetch before iteration
        (degree > 1 only; otherwise each starts when first pulled)."""
        if not self._parallel:
            return
        for exchange in exchanges:
            if id(exchange) not in self._by_exchange:
                ctx.add_metric("fragments_executed", 1)
                self._by_exchange[id(exchange)] = self.submit_fragment(
                    exchange.adapter, exchange.fragment, exchange.page_rows,
                    ctx, sizer=exchange._sizer,
                )

    def was_prestarted(self, exchange) -> bool:
        """Is a producer already fetching this exchange's fragment?
        (The fragment cache must not replay an entry whose fetch is
        in flight — the worker is charging the network regardless.)"""
        return id(exchange) in self._by_exchange

    def stream_exchange_pages(self, exchange, ctx) -> Iterator[Page]:
        """An exchange's response pages in production order."""
        task = self._by_exchange.get(id(exchange))
        if task is None:
            ctx.add_metric("fragments_executed", 1)
            task = self.submit_fragment(
                exchange.adapter, exchange.fragment, exchange.page_rows,
                ctx, sizer=exchange._sizer,
            )
            self._by_exchange[id(exchange)] = task
        return self.stream_pages(task, ctx)

    def submit_fragment(
        self, adapter, fragment: Fragment, page_rows: int, ctx, sizer,
        hedge: bool = False, on_start=None,
    ) -> _FragmentTask:
        """Submit one fragment's fetch; returns its task. A worker task
        starts now, an inline task when :meth:`stream_pages` first pulls
        it; ``on_start()`` runs on the starting thread just before."""
        with self._lock:
            index = len(self._tasks)
            kind = _WorkerTask if self._threaded else _FragmentTask
            task = kind(
                index, adapter, fragment, max(page_rows, 1), sizer,
                hedge=hedge, on_start=on_start,
            )
            self._tasks.append(task)
        if not isinstance(task, _WorkerTask):
            return task
        if on_start is not None:
            on_start()
        thread = threading.Thread(
            target=self._produce,
            args=(task, ctx),
            name=f"gis-fragment-{index}-{fragment.source_name}",
            daemon=True,
        )
        task.thread = thread
        thread.start()
        return task

    # -- consumption --------------------------------------------------------

    def stream_pages(self, task: _FragmentTask, ctx) -> Iterator[Page]:
        """The fragment's pages in production order, exactly as the
        network was charged for them (never re-chunked)."""
        if isinstance(task, _WorkerTask):
            return self._stream_worker(task, ctx)
        return self._stream_inline(task, ctx)

    def _stream_inline(self, task: _FragmentTask, ctx) -> Iterator[Page]:
        if task.on_start is not None:
            task.on_start()
        span, pages = self._open(task, ctx, _never, None)
        try:
            yield from pages
        finally:
            span.end()

    def _stream_worker(self, task: _WorkerTask, ctx) -> Iterator[Page]:
        """Drain a worker task's queue, enforcing the no-progress timeout
        while waiting. When the query carries a deadline the wait is
        sliced so expiry is noticed promptly even with no fragment timeout
        set.

        With hedging armed, the wait for the fragment's *first* page runs
        through :meth:`_stream_hedged`, which may race a duplicate fetch
        on a replica against a straggling primary."""
        timeout_ms = self._timeout_ms_for(task.fragment.source_name, ctx)
        deadline: Optional[Deadline] = getattr(ctx, "deadline", None)
        if self._options.hedge_fragments and not task.hedge:
            yield from self._stream_hedged(task, ctx, timeout_ms, deadline)
        else:
            yield from self._stream_plain(task, ctx, timeout_ms, deadline)

    def _timeout_ms_for(self, source: str, ctx) -> float:
        """The no-progress budget for one source: the adaptive
        quantile-derived value when armed and warm, else the static
        ``fragment_timeout_ms`` (the cold-start fallback)."""
        options = self._options
        static = options.fragment_timeout_ms
        if not options.adaptive_timeout:
            return static
        health = getattr(ctx, "health", None)
        if health is None:
            return static
        adaptive = health.adaptive_timeout_ms(
            source,
            options.timeout_multiplier,
            options.timeout_floor_ms,
            options.timeout_ceiling_ms,
        )
        return static if adaptive is None else adaptive

    def _stream_plain(
        self,
        task: _WorkerTask,
        ctx,
        timeout_ms: float,
        deadline: "Optional[Deadline]",
    ) -> Iterator[Page]:
        timeout_s = timeout_ms / 1000.0 if timeout_ms > 0 else None
        while True:
            if task.queue.empty() and not task.done:
                ctx.add_metric("scheduler_stalls", 1)
            try:
                kind, payload = self._next_item(task, ctx, timeout_s, deadline)
            except queue.Empty:
                self._fail_no_progress(task, None, ctx, timeout_ms)
            if kind == "rows":
                yield payload
            elif kind == "end":
                return
            else:  # "error"
                raise payload

    def _fail_no_progress(
        self,
        task: _WorkerTask,
        hedge: "Optional[_WorkerTask]",
        ctx,
        timeout_ms: float,
    ) -> None:
        """Cancel a fragment (and any in-flight hedge) that made no
        progress for its budget and raise the attributed SourceError."""
        task.cancelled = True
        if hedge is not None:
            hedge.cancelled = True
        source = task.fragment.source_name
        breaker = ctx.breaker_for(source)
        if breaker is not None and breaker.record_failure():
            ctx.add_metric("breaker_trips", 1)
        health = getattr(ctx, "health", None)
        if health is not None:
            health.record_error(source)
        # Close the abandoned producer's span from here — its own
        # thread is hung and will never end it.
        task.span.event("timeout", timeout_ms=timeout_ms)
        task.span.set_attribute("timeout", True)
        task.span.end()
        raise SourceError(
            source,
            f"fragment made no progress for {timeout_ms:.0f} ms "
            "(timeout; source may be hung)",
        )

    # -- hedged consumption -------------------------------------------------

    def _hedge_delay_ms(self, source: str, ctx) -> float:
        options = self._options
        health = getattr(ctx, "health", None)
        if health is None:
            return options.hedge_delay_ms
        return health.hedge_delay_ms(
            source, options.hedge_quantile, options.hedge_delay_ms
        )

    def _launch_hedge(
        self, primary: _WorkerTask, ctx
    ) -> "Optional[_WorkerTask]":
        """Start the duplicate fetch on the healthiest admitted replica."""
        target = hedge_target(
            ctx.catalog, primary.fragment, ctx.breakers, ctx.health
        )
        if target is None:
            return None
        source, adapter, fragment = target
        ctx.add_metric("hedges_launched", 1)
        ctx.trace_span.event(
            "hedge-launched",
            primary=primary.fragment.source_name, replica=source,
        )
        task = self.submit_fragment(
            adapter, fragment, primary.page_rows, ctx,
            sizer=primary.sizer, hedge=True,
        )
        assert isinstance(task, _WorkerTask)  # hedging implies workers
        return task

    def _stream_hedged(
        self,
        primary: _WorkerTask,
        ctx,
        timeout_ms: float,
        deadline: "Optional[Deadline]",
    ) -> Iterator[Page]:
        """Race the primary fetch against a late-launched replica hedge.

        The race covers only the *first* item: once either stream
        produces a page (or finishes), that task is the winner, the loser
        is cooperatively cancelled, and consumption continues on the
        winner alone. Hedging therefore never mixes pages from two
        streams — the winner's stream is consumed end to end, which is
        what keeps hedged rows bit-identical to unhedged execution. A
        primary that produces before the hedge delay elapses commits the
        race immediately and no hedge is launched.
        """
        source = primary.fragment.source_name
        health = getattr(ctx, "health", None)
        delay_ms = self._hedge_delay_ms(source, ctx)
        started = self._clock()
        hedge: "Optional[_WorkerTask]" = None
        no_target = False
        winner: "Optional[_WorkerTask]" = None
        first = None
        failures: List[Tuple[_WorkerTask, BaseException]] = []
        while winner is None:
            if deadline is not None and deadline.remaining_ms() <= 0:
                primary.cancelled = True
                if hedge is not None:
                    hedge.cancelled = True
                primary.span.event("deadline", budget_ms=deadline.budget_ms)
                raise ctx.deadline_error(source)
            waited_ms = (self._clock() - started) * 1000.0
            if timeout_ms > 0 and waited_ms >= timeout_ms:
                self._fail_no_progress(primary, hedge, ctx, timeout_ms)
            if hedge is None and not no_target and waited_ms >= delay_ms:
                hedge = self._launch_hedge(primary, ctx)
                no_target = hedge is None
            contenders = [
                t for t in (primary, hedge)
                if t is not None and all(f is not t for f, _ in failures)
            ]
            if not contenders:
                # Both streams failed terminally (their envelopes already
                # retried and fell back); attribute to the primary.
                for failed, error in failures:
                    if failed is primary:
                        raise error
                raise failures[0][1]
            item = None
            holder = None
            for contender in contenders:
                try:
                    item = contender.queue.get_nowait()
                    holder = contender
                    break
                except queue.Empty:
                    continue
            if item is None:
                ctx.add_metric("scheduler_stalls", 1)
                # Bounded block so hedge launch, timeout, and deadline
                # all stay prompt (the same poll granularity the
                # producers use for cancellation).
                slice_s = _POLL_S
                if hedge is None and not no_target:
                    slice_s = max(
                        min(slice_s, (delay_ms - waited_ms) / 1000.0), 0.001
                    )
                try:
                    item = contenders[0].queue.get(timeout=slice_s)
                    holder = contenders[0]
                except queue.Empty:
                    continue
            kind, payload = item
            if kind == "error":
                failures.append((holder, payload))
                continue
            winner, first = holder, item
        loser = hedge if winner is primary else primary
        if loser is not None:
            loser.cancelled = True
            ctx.add_metric("hedges_cancelled", 1)
        if hedge is not None:
            hedge_won = winner is hedge
            if health is not None:
                health.record_hedge(source, won=hedge_won)
            if hedge_won:
                ctx.add_metric("hedges_won", 1)
                ctx.trace_span.event(
                    "hedge-won",
                    replica=winner.fragment.source_name, primary=source,
                )
        kind, payload = first
        if kind == "rows":
            yield payload
        elif kind == "end":
            return
        yield from self._stream_plain(winner, ctx, timeout_ms, deadline)

    def _next_item(
        self,
        task: _WorkerTask,
        ctx,
        timeout_s: Optional[float],
        deadline: "Optional[Deadline]",
    ):
        """One blocking queue wait, honoring both the fragment's
        no-progress timeout (raises ``queue.Empty`` to the caller) and
        the query deadline (cancels the task and raises
        :class:`QueryTimeoutError`). Without a deadline this is a single
        ``Queue.get`` — the exact pre-deadline behavior."""
        if deadline is None:
            return task.queue.get(timeout=timeout_s)
        wait_started = self._clock()
        while True:
            remaining_deadline_s = deadline.remaining_ms() / 1000.0
            if remaining_deadline_s <= 0:
                task.cancelled = True
                source = task.fragment.source_name
                task.span.event("deadline", budget_ms=deadline.budget_ms)
                raise ctx.deadline_error(source)
            slice_s = remaining_deadline_s
            if timeout_s is not None:
                waited_s = self._clock() - wait_started
                remaining_timeout_s = timeout_s - waited_s
                if remaining_timeout_s <= 0:
                    raise queue.Empty
                slice_s = min(slice_s, remaining_timeout_s)
            try:
                return task.queue.get(timeout=slice_s)
            except queue.Empty:
                if timeout_s is not None and (
                    self._clock() - wait_started
                ) >= timeout_s:
                    raise
                continue

    # -- shutdown -----------------------------------------------------------

    def close(self, ctx) -> None:
        """Cancel producers, unblock any stuck on full queues, and publish
        scheduler statistics into the query's metrics."""
        self._stop.set()
        for task in self._tasks:
            if not isinstance(task, _WorkerTask):
                continue
            task.cancelled = True
            while True:
                try:
                    task.queue.get_nowait()
                except queue.Empty:
                    break
        # Realized virtual-clock critical path: greedy list scheduling of
        # the fragments (in submission order) over the configured number of
        # lanes — the simulated elapsed time of the schedule actually taken,
        # as opposed to the per-source max, which assumes unbounded fan-out.
        lanes = [0.0] * self._options.max_parallel_fragments
        for task in self._tasks:
            slot = lanes.index(min(lanes))
            lanes[slot] += task.virtual_ms
        ctx.set_metric("parallel_ms", max(lanes) if self._tasks else 0.0)
        ctx.set_metric("fragments_in_flight_peak", self.peak_in_flight)

    # -- producer side ------------------------------------------------------

    def _source_slot(self, source_name: str) -> threading.Semaphore:
        key = source_name.lower()
        with self._lock:
            slot = self._source_slots.get(key)
            if slot is None:
                slot = threading.Semaphore(self._options.max_parallel_per_source)
                self._source_slots[key] = slot
            return slot

    def _produce(self, task: _WorkerTask, ctx) -> None:
        def cancelled() -> bool:
            return self._stop.is_set() or task.cancelled

        # A hedge must run while the straggling primary still holds its
        # worker slot — under the global cap, max_parallel_fragments=1
        # would quietly disable hedging. Hedge concurrency is bounded by
        # the number of in-flight races (at most one per consumer), so
        # bypassing the cap cannot stampede the pool; per-source
        # admission still applies inside the envelope.
        if not task.hedge and not _acquire(self._global_slots, cancelled):
            return
        try:
            with self._lock:
                self._in_flight += 1
                self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            self._run_envelope(task, ctx, cancelled)
        finally:
            with self._lock:
                self._in_flight -= 1
            if not task.hedge:
                self._global_slots.release()

    def _open(
        self, task: _FragmentTask, ctx, cancelled, slot_for
    ) -> Tuple[Any, Generator[Page, None, None]]:
        """A task's ``fragment:<source>`` span (the caller ends it) and
        :func:`fetch_pages` generator, for inline and worker tasks alike."""
        source = task.fragment.source_name
        span = ctx.trace_child(
            f"fragment:{source}", "fragment",
            source=source, mode=self.mode, worker=task.index,
        )
        if task.hedge:
            span.set_attribute("hedge", True)
        task.span = span

        def routed(fragment: Fragment) -> None:
            task.fragment = fragment

        def charged(page, elapsed_ms: float) -> None:
            task.virtual_ms += elapsed_ms
            if task.hedge:
                ctx.add_metric("hedges_rows_shipped", len(page))
                ctx.add_metric("hedges_bytes_shipped", task.sizer(page))

        pages = fetch_pages(
            ctx, task.adapter, task.fragment, task.page_rows, span, task.index,
            sizer=task.sizer, clock=self._clock, slot_for=slot_for,
            cancelled=cancelled, route=not task.hedge, on_route=routed,
            on_charge=charged,
        )
        return span, pages

    def _run_envelope(self, task: _WorkerTask, ctx, cancelled) -> None:
        """Run one fragment's :func:`fetch_pages` envelope on this worker,
        queueing its pages, then its end or its error, for the consumer.

        The trace span is opened here, on the worker thread, under the
        parent captured from the submitting query's context
        (``ctx.trace_span``) — explicit cross-thread context propagation.
        It is also activated thread-locally so any nested instrumentation
        on this worker parents correctly.
        """
        span, pages = self._open(task, ctx, cancelled, self._source_slot)
        item: Tuple[str, Any]
        with ctx.tracer.activate(span):
            try:
                for page in pages:
                    if not task.put(("rows", page), self._stop):
                        return
                item = ("end", None)
            except BaseException as exc:  # re-raised on the consumer thread
                item = ("error", exc)
            finally:
                pages.close()
                span.end()
        task.done = True
        task.put(item, self._stop)
