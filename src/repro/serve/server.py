"""The asyncio query server.

One asyncio event loop owns all connections and the admission scheduler;
blocking mediator calls run on a bounded ``ThreadPoolExecutor`` shared by
every session. Requests and responses are JSON lines (see
:mod:`repro.serve.protocol`).

Operations::

    hello   {tenant, token?}                 -> handshake (required first)
    query   {sql, deadline_ms?, partial?, trace?, faults?}   sync execute
    submit  {sql, ...same knobs}             -> {query_id}   async execute
    status  {query_id}                       -> queued|running|done|error
    fetch   {query_id, offset?, limit?}      -> one page of a done result
    set     {defaults: {deadline_ms?, partial?, trace?}}     session knobs
    stats   {}                               -> admission + cache stats
    ping    {}                               -> liveness
    close   {}                               -> server closes connection

Every response echoes the request's ``id`` (when given) for correlation.
Partial results keep their degradation metadata on the wire: responses
always carry ``complete`` and ``excluded_sources``, and typed failures
(timeouts with budget/elapsed/source attribution, backpressure with
queue depths) serialize losslessly — a remote client sees exactly what a
local ``Mediator.query()`` caller would.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..core.mediator import GlobalInformationSystem
from ..errors import GISError, ProtocolError, ServerError
from .admission import FairScheduler
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_error,
    encode_message,
    encode_result,
)
from .session import ServerConfig, Session, TenantConfig

__all__ = ["QueryServer", "ServerConfig", "TenantConfig"]

DEFAULT_FETCH_LIMIT = 1024


class _AsyncQuery:
    """One submitted query's lifecycle (loop-confined except ``state``,
    which the executor thread flips to ``running`` — a benign one-word
    write the loop only ever reads for status display)."""

    __slots__ = ("query_id", "sql", "state", "result", "error")

    def __init__(self, query_id: str, sql: str) -> None:
        self.query_id = query_id
        self.sql = sql
        self.state = "queued"  # queued | running | done | error
        self.result = None
        self.error: Optional[BaseException] = None


class QueryServer:
    """A multi-tenant JSON-lines query service over one mediator."""

    def __init__(
        self,
        gis: GlobalInformationSystem,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.gis = gis
        self.config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.scheduler: Optional[FairScheduler] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._background_loop: Optional[asyncio.AbstractEventLoop] = None
        self._address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise ServerError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="gis-serve-worker",
        )
        quotas = {
            name: tenant.quota()
            for name, tenant in self.config.tenants.items()
        }
        self.scheduler = FairScheduler(
            self._executor,
            default_quota=self.config.default_quota(),
            quotas=quotas,
            registry=self.gis.obs.registry,
        )
        self._server = await asyncio.start_server(
            self._accept,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self._address = (host, port)
        return self._address

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ServerError("server not started")
        return self._address

    async def stop(self) -> None:
        """Stop accepting, fail queued work, drain running queries, and
        release every thread — the clean-shutdown contract the smoke test
        asserts (no leaked threads or tasks)."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        if self.scheduler is not None:
            self.scheduler.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._executor is not None:
            # Waits for in-flight mediator calls; queued-but-undispatched
            # work was already failed by scheduler.close().
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )
        self._server = None
        self._executor = None
        self.scheduler = None
        self._address = None

    # -- background-thread helpers (tests, REPL --serve) -------------------

    def start_background(self) -> Tuple[str, int]:
        """Run the server on a dedicated event-loop thread; returns the
        bound address once accepting."""
        if self._thread is not None:
            raise ServerError("server already running in background")
        loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="gis-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        self._background_loop = loop
        return self.address

    def stop_background(self, timeout: float = 30.0) -> None:
        """Stop a background server and join its loop thread."""
        if self._thread is None:
            return
        loop = self._background_loop
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        future.result(timeout=timeout)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServerError("server loop thread did not stop")
        self._thread = None

    # -- connection handling -----------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[Session] = None
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._send(
                    writer, {"ok": False, "error": encode_error(
                        ProtocolError("request line too long")
                    )},
                )
                return
            except ConnectionError:
                return
            if not line:
                return
            if not line.strip():
                continue
            request_id = None
            try:
                request = decode_message(line)
                request_id = request.get("id")
                op = request.get("op")
                if not isinstance(op, str):
                    raise ProtocolError("request is missing its 'op'")
                if session is None and op not in ("hello", "ping", "close"):
                    raise ProtocolError(
                        "handshake required: send {'op': 'hello', 'tenant': ...} first"
                    )
                if op == "hello":
                    session, response = self._handle_hello(request)
                elif op == "ping":
                    response = {"ok": True, "pong": True}
                elif op == "close":
                    await self._send(
                        writer, self._respond({"ok": True, "closing": True},
                                              request_id),
                    )
                    return
                else:
                    response = await self._dispatch(session, request, op)
            except GISError as exc:
                response = {"ok": False, "error": encode_error(exc)}
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: never kill the connection
                response = {"ok": False, "error": encode_error(exc)}
            try:
                await self._send(writer, self._respond(response, request_id))
            except ConnectionError:
                return

    @staticmethod
    def _respond(response: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        if request_id is not None:
            response = {"id": request_id, **response}
        return response

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    # -- op handlers -------------------------------------------------------

    def _handle_hello(
        self, request: Dict[str, Any]
    ) -> Tuple[Session, Dict[str, Any]]:
        version = int(request.get("version", PROTOCOL_VERSION))
        if version > PROTOCOL_VERSION:
            raise ProtocolError(
                f"client protocol v{version} is newer than server v{PROTOCOL_VERSION}"
            )
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("hello requires a non-empty 'tenant'")
        known = self.config.tenants.get(tenant)
        if known is None and self.config.require_known_tenant:
            raise ProtocolError(f"unknown tenant {tenant!r}")
        if known is not None and known.token is not None:
            if request.get("token") != known.token:
                raise ProtocolError(f"bad token for tenant {tenant!r}")
        session = Session(tenant)
        return session, {
            "ok": True,
            "session": session.id,
            "tenant": tenant,
            "version": PROTOCOL_VERSION,
        }

    async def _dispatch(
        self, session: Session, request: Dict[str, Any], op: str
    ) -> Dict[str, Any]:
        if op == "query":
            return await self._handle_query(session, request)
        if op == "submit":
            return self._handle_submit(session, request)
        if op == "status":
            return self._handle_status(session, request)
        if op == "fetch":
            return self._handle_fetch(session, request)
        if op == "set":
            defaults = request.get("defaults")
            if not isinstance(defaults, dict):
                raise ProtocolError("set requires a 'defaults' object")
            return {"ok": True, "defaults": session.set_defaults(defaults)}
        if op == "stats":
            return self._handle_stats()
        if op == "catalog":
            return {"ok": True, "catalog": self.gis.catalog_status()}
        raise ProtocolError(f"unknown op {op!r}")

    def _make_work(self, session: Session, request: Dict[str, Any]):
        """Build the blocking mediator call for one request (resolves the
        effective options *now*, on the loop, so knob errors surface as
        protocol errors rather than executor failures)."""
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request requires a non-empty 'sql'")
        options = session.options_for(self.gis.planner.options, request)
        gis = self.gis
        tracer = gis.obs.tracer
        tenant = session.tenant
        registry = gis.obs.registry

        def work():
            span = tracer.root_span("serve:execute", tenant=tenant, sql=sql)
            result = None
            try:
                result = gis.query(sql, options)
                return result
            finally:
                span.end()
                if registry.enabled:
                    registry.counter(f"tenant.{tenant}.queries_total").inc()
                    if result is not None:
                        net = result.metrics.network
                        if net.fragment_cache_hits:
                            registry.counter(
                                f"tenant.{tenant}.fragment_cache_hits"
                            ).inc(net.fragment_cache_hits)
                        if net.materialized_view_hits:
                            registry.counter(
                                f"tenant.{tenant}.materialized_view_hits"
                            ).inc(net.materialized_view_hits)

        return sql, work

    async def _handle_query(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        _sql, work = self._make_work(session, request)
        assert self.scheduler is not None
        future = self.scheduler.submit(session.tenant, work)
        result = await future
        payload = encode_result(result)
        payload["ok"] = True
        return payload

    def _handle_submit(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        sql, work = self._make_work(session, request)
        query_id = session.next_query_id()
        entry = _AsyncQuery(query_id, sql)

        def tracked_work():
            entry.state = "running"
            return work()

        assert self.scheduler is not None
        future = self.scheduler.submit(session.tenant, tracked_work)
        session.queries[query_id] = entry
        self._trim_results(session)

        def finished(fut: asyncio.Future) -> None:
            if fut.cancelled():
                entry.state = "error"
                entry.error = ServerError("query cancelled")
            elif fut.exception() is not None:
                entry.state = "error"
                entry.error = fut.exception()
            else:
                entry.state = "done"
                entry.result = fut.result()

        future.add_done_callback(finished)
        return {"ok": True, "query_id": query_id, "state": entry.state}

    def _trim_results(self, session: Session) -> None:
        """Bound the per-session async registry (oldest settled first)."""
        limit = max(self.config.max_retained_results, 1)
        if len(session.queries) <= limit:
            return
        for query_id in list(session.queries):
            if len(session.queries) <= limit:
                break
            if session.queries[query_id].state in ("done", "error"):
                del session.queries[query_id]

    def _lookup_query(self, session: Session, request: Dict[str, Any]) -> _AsyncQuery:
        query_id = request.get("query_id")
        entry = session.queries.get(query_id)
        if entry is None:
            raise ProtocolError(f"unknown query_id {query_id!r}")
        return entry

    def _handle_status(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        entry = self._lookup_query(session, request)
        response: Dict[str, Any] = {
            "ok": True,
            "query_id": entry.query_id,
            "state": entry.state,
        }
        if entry.state == "done" and entry.result is not None:
            response["row_count"] = len(entry.result.rows)
            response["complete"] = bool(entry.result.complete)
        if entry.state == "error" and entry.error is not None:
            response["error"] = encode_error(entry.error)
        return response

    def _handle_fetch(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        entry = self._lookup_query(session, request)
        if entry.state == "error":
            assert entry.error is not None
            return {
                "ok": False,
                "query_id": entry.query_id,
                "state": "error",
                "error": encode_error(entry.error),
            }
        if entry.state != "done":
            return {"ok": True, "query_id": entry.query_id,
                    "state": entry.state, "ready": False}
        result = entry.result
        offset = int(request.get("offset", 0))
        limit = int(request.get("limit", DEFAULT_FETCH_LIMIT))
        if offset < 0 or limit < 1:
            raise ProtocolError("fetch offset must be >= 0 and limit >= 1")
        window = result.rows[offset : offset + limit]
        payload = encode_result(result, rows=window)
        payload.update(
            {
                "ok": True,
                "query_id": entry.query_id,
                "state": "done",
                "ready": True,
                "offset": offset,
                "returned": len(window),
                "eof": offset + len(window) >= len(result.rows),
            }
        )
        return payload

    def _handle_stats(self) -> Dict[str, Any]:
        assert self.scheduler is not None
        tenants = {
            tenant: stats.as_dict()
            for tenant, stats in self.scheduler.stats().items()
        }
        return {
            "ok": True,
            "tenants": tenants,
            "plan_cache": self.gis.plan_cache.stats(),
            "fragment_cache": self.gis.fragment_cache.stats(),
            "materialized_views": self.gis.materialized.stats(),
            "workers": self.config.max_workers,
        }
