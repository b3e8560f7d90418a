"""Outside-in tracing: times the calls into each layer's public functions
from the benchmark's own files, without touching ``src/``.

Only the traced run imports this module. A *boundary* is a function or
method of the program, found by name when tracing starts and replaced by a
timing wrapper: class methods on their class, module functions in the
module that binds them (``from x import f`` makes a second name, so the
consumer's name is the one patched). A boundary that no longer exists is
recorded as missing and skipped - later changes may move code, and the
benchmark must still run.

Per thread, open boundary calls form a stack. A call's *self* time is its
duration minus the durations of the calls directly under it; per-boundary
totals are kept in plain accumulators, and span records are kept only for
boundaries crossed a few times per query (per-page boundaries would make
one object per page). Iterator boundaries time each ``next()`` separately,
so time the consumer spends between pages is not charged to the producer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: The boundary every other call of a query nests under.
ROOT = "core.mediator.query"


class Boundary(NamedTuple):
    """``target`` is ``module:attr`` or ``module:Class.attr``; ``kind`` is
    ``call`` (time the call) or ``iter`` (time each ``next()`` of what the
    call returns); ``span`` keeps one record per call / per iterator."""

    key: str
    target: str
    kind: str = "call"
    span: bool = False


#: Boundaries installed in the server child.
SERVER_BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("serve.protocol.decode", "repro.serve.server:decode_message"),
    Boundary("serve.protocol.encode", "repro.serve.server:encode_result"),
    Boundary("serve.protocol.encode", "repro.serve.server:encode_message"),
    Boundary(ROOT, "repro.core.mediator:GlobalInformationSystem.query", span=True),
    Boundary("sql.parse", "repro.core.mediator:parse_select", span=True),
    Boundary("sql.parse", "repro.core.planner:parse_select", span=True),
    Boundary("core.prepared.parameterize", "repro.core.mediator:parameterize", span=True),
    Boundary("core.prepared.rebind", "repro.core.prepared:PreparedPlan.bind", span=True),
    Boundary("core.planner.plan", "repro.core.planner:Planner.plan_statement", span=True),
    Boundary("core.analyzer.bind", "repro.core.analyzer:Analyzer.bind_statement", span=True),
    Boundary("core.rewriter.rewrite", "repro.core.planner:rewrite", span=True),
    Boundary("core.join_order.reorder", "repro.core.join_order:JoinOrderer.reorder", span=True),
    Boundary("core.pushdown.apply", "repro.core.pushdown:PushdownPlanner.apply", span=True),
    Boundary("core.semijoin.apply", "repro.core.semijoin:SemijoinPlanner.apply", span=True),
    Boundary("core.physical.build", "repro.core.physical:PhysicalPlanner.build"),
    Boundary("core.planner.explain", "repro.core.planner:PlannedQuery.explain", span=True),
    Boundary("core.pages.convert", "repro.core.pages:Page.from_rows"),
    Boundary("core.pages.convert", "repro.core.pages:Page.retyped"),
    Boundary("core.pages.convert", "repro.core.pages:Page.to_rows"),
    Boundary(
        "core.scheduler.wait",
        "repro.core.scheduler:FragmentScheduler.stream_exchange_pages",
        kind="iter", span=True,
    ),
    Boundary("cache.fragments.probe", "repro.cache.fragments:FragmentCache.begin", span=True),
    Boundary("sources.sqlite.fetch", "repro.sources.sqlite:SQLiteSource.execute_pages", "iter", True),
    Boundary("sources.memory.fetch", "repro.sources.memory:MemorySource.execute_pages", "iter", True),
    Boundary("sources.csv.fetch", "repro.sources.csvfile:CsvSource.execute_pages", "iter", True),
    Boundary("sources.keyvalue.fetch", "repro.sources.keyvalue:KeyValueSource.execute_pages", "iter", True),
    Boundary("sources.rest.fetch", "repro.sources.rest:RestSource.execute_pages", "iter", True),
    Boundary("sources.injected_wait", "benchmarks.standing.federation:injected_wait"),
)

#: Boundaries installed in the load generator (the client's codec).
CLIENT_BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("serve.client.codec", "repro.serve.client:encode_message"),
    Boundary("serve.client.codec", "repro.serve.client:decode_message"),
    Boundary("serve.client.codec", "repro.serve.client:RemoteResult.__init__"),
)

#: ``ExecutionMetrics`` counts summed over the queries of a traced phase.
QUERY_COUNTERS = (
    "scheduler_stalls", "fragment_retries", "fragment_cache_bytes_saved",
)


class _ThreadState:
    __slots__ = ("stack", "totals", "name")

    def __init__(self, name: str) -> None:
        self.stack: List[List[Any]] = []
        #: key -> [calls, inclusive_s, self_s, directly_under_root_s]
        self.totals: Dict[str, List[float]] = {}
        self.name = name


class Tracer:
    """Exclusive-time accumulators on per-thread stacks, plus spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (op_index, name, start, end, parent, thread)
        self.spans: List[Tuple[int, str, float, float, Optional[str], str]] = []
        self.counters: Dict[str, float] = {}
        #: (target, key) of every boundary that could not be installed.
        self.missing: List[Tuple[str, str]] = []
        #: Index of the latest root call; with one client in flight it is
        #: the op every span on every thread belongs to.
        self.op_index = -1
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- the stack ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, key: str) -> None:
        if key == ROOT:
            self.op_index += 1
        self._state().stack.append([key, self.clock(), 0.0])

    def exit(self, span: bool = False) -> None:
        """Close the innermost open call of this thread."""
        end = self.clock()
        state = self._state()
        key, start, child_time = state.stack.pop()
        duration = end - start
        total = state.totals.get(key)
        if total is None:
            total = state.totals[key] = [0, 0.0, 0.0, 0.0]
        total[0] += 1
        total[2] += duration - child_time
        stack = state.stack
        # A boundary that re-enters itself (recursive planners) counts its
        # inclusive time once, at the outermost call.
        if not any(frame[0] == key for frame in stack):
            total[1] += duration
        parent = None
        if stack:
            parent = stack[-1][0]
            stack[-1][2] += duration
            if parent == ROOT:
                total[3] += duration
        if span:
            self.spans.append(
                (self.op_index, key, start, end, parent, state.name)
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, fn: Callable, boundary: Boundary) -> Callable:
        key, span = boundary.key, boundary.span
        enter, leave = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(span)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, fn: Callable, boundary: Boundary) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            tracer.count(boundary.key + ".iterators")
            tracer.enter(boundary.key)
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer.exit()
            return _TimedIterator(tracer, iter(inner), boundary)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------

    def install(self, boundaries: Tuple[Boundary, ...]) -> None:
        """Patch every boundary that still exists; note the rest."""
        for boundary in boundaries:
            try:
                self._install_one(boundary)
            except (ImportError, AttributeError) as exc:
                self.missing.append((boundary.target, boundary.key))
                print(
                    f"[standing] warning: boundary {boundary.target} "
                    f"({boundary.key}) not found: {exc}",
                    file=sys.stderr,
                )

    def _install_one(self, boundary: Boundary) -> None:
        module_name, _, path = boundary.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        raw = inspect.getattr_static(owner, attr)
        wrap = self.wrap_iter if boundary.kind == "iter" else self.wrap_call
        if isinstance(raw, classmethod):
            patched: Any = classmethod(wrap(raw.__func__, boundary))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(wrap(raw.__func__, boundary))
        else:
            patched = wrap(raw, boundary)
        if boundary.target.endswith(":encode_message"):
            patched = self._counting_bytes(patched)
        if boundary.key == ROOT:
            patched = self._counting_query(patched)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _counting_bytes(self, fn: Callable) -> Callable:
        def counted(message: Any) -> bytes:
            line = fn(message)
            self.count("serve.protocol.response_bytes", len(line))
            return line

        return counted

    def _counting_query(self, fn: Callable) -> Callable:
        """Sum the per-query ``ExecutionMetrics`` counts the per-layer
        table reads (they exist only on the result object)."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            metrics = getattr(getattr(result, "metrics", None), "network", None)
            if metrics is not None:
                for name in QUERY_COUNTERS:
                    self.count(name, getattr(metrics, name, 0))
                peak = getattr(metrics, "fragments_in_flight_peak", 0)
                with self._lock:
                    if peak > self.counters.get("fragments_in_flight_peak", 0):
                        self.counters["fragments_in_flight_peak"] = peak
            return result

        return counted

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative totals merged over threads (take it while idle)."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
            counters = dict(self.counters)
        for state in states:
            for key, total in list(state.totals.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0.0])
                for index, value in enumerate(total):
                    into[index] += value
        return {"totals": merged, "counters": counters, "missing": list(self.missing)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for op_index, name, start, end, parent, thread in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op_index, "name": name, "start": start,
                         "end": end, "parent": parent, "thread": thread},
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


class _TimedIterator:
    """Times each ``next()`` of a boundary's iterator on the caller's
    thread; one span covers the iterator from first pull to exhaustion."""

    __slots__ = ("_tracer", "_inner", "_boundary", "_first")

    def __init__(self, tracer: Tracer, inner: Iterator[Any], boundary: Boundary) -> None:
        self._tracer = tracer
        self._inner = inner
        self._boundary = boundary
        self._first: Optional[float] = None

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        boundary = self._boundary
        if self._first is None:
            self._first = tracer.clock()
        tracer.enter(boundary.key)
        try:
            item = next(self._inner)
        except StopIteration:
            self._finish()
            raise
        finally:
            tracer.exit()
        if boundary.key.startswith("sources."):
            tracer.count("sources.rows", len(item))
        return item

    def _finish(self) -> None:
        if self._boundary.span and self._first is not None:
            tracer = self._tracer
            tracer.spans.append(
                (tracer.op_index, self._boundary.key + ".stream", self._first,
                 tracer.clock(), None, threading.current_thread().name)
            )
            self._first = None

    def close(self) -> None:
        self._finish()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
