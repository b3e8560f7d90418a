r"""Interactive federation shell.

``python -m repro --demo`` builds the TPC-H-lite demo federation and drops
into a small REPL::

    gis> SELECT COUNT(*) FROM orders;
    gis> \tables
    gis> \explain SELECT c_name FROM customers WHERE c_id = 7;
    gis> \quit

Statements end with ``;`` (multi-line input accumulates until one appears).
Backslash commands:

========  ===========================================================
\help     this text
\tables   list global tables and views
\sources  list registered sources with their capability envelopes
\schema T show a table's columns and statistics
\explain  (prefix to a query) show the distributed plan instead of rows
\profile  (prefix to a query) run it and show actual rows per operator
\metrics  last query's transfer metrics, plus the mediator-wide metrics
          registry and circuit-breaker states when metrics are enabled
\cache    semantic-cache state: fragment cache and materialized views;
          \cache clear drops the fragment cache's entries
\catalog  live catalog state: catalog epoch, sources with epochs,
          tables/views with schema+stats versions, and — when catalog
          persistence is armed — the journal position
\trace on|off|FILE  record spans per query; FILE also exports a Chrome
          trace_event file (chrome://tracing / Perfetto) after each query
\health   per-source health: breaker state, failure counts, link speed,
          shipped totals, injected-fault counters when faults are armed,
          and — once pages have been observed — latency EWMA and
          p50/p95/p99, error rate, the no-progress timeout in force
          (adaptive when armed and warm), and hedge win/loss counters
\naive    toggle the naive (no-optimizer) baseline for comparisons
\parallel N|off  fetch fragments with N concurrent workers (off = sequential)
\batch N|off  rows per operator batch (off = planner default, 1 = row-at-a-time)
\deadline MS|off  abort queries that exceed MS wall-clock milliseconds
\partial on|off  degrade to partial results when a source stays down
          (instead of failing the whole query)
\analyze  gather statistics on all tables
\quit     exit
========  ===========================================================

The class is I/O-stream parameterized so tests can drive it directly.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import IO, Iterable, List, Optional

from .core.mediator import GlobalInformationSystem
from .core.planner import NAIVE_OPTIONS, PlannerOptions
from .core.result import QueryResult
from .errors import GISError

#: What ``\naive`` changes: the naive baseline's departures from defaults.
_NAIVE_CHANGES = {
    f.name: getattr(NAIVE_OPTIONS, f.name)
    for f in fields(PlannerOptions)
    if getattr(NAIVE_OPTIONS, f.name) != f.default
}


class Repl:
    """Line-oriented shell over one mediator instance."""

    PROMPT = "gis> "
    CONTINUATION = "...> "

    def __init__(
        self,
        gis: GlobalInformationSystem,
        out: Optional[IO[str]] = None,
    ) -> None:
        self.gis = gis
        self.out = out or sys.stdout
        # Session knobs, layered on the mediator's configured options by
        # _options(); None leaves the configured value in force.
        self.naive = False
        self.parallel: Optional[int] = None
        self.batch: Optional[int] = None
        self.deadline_ms: Optional[float] = None
        self.partial: Optional[bool] = None
        self.last_result: Optional[QueryResult] = None
        self._buffer: List[str] = []
        self._done = False

    # -- driving ---------------------------------------------------------------

    def run(self, lines: Iterable[str], interactive: bool = False) -> None:
        """Process input lines until exhausted or \\quit."""
        if interactive:
            self._write(self.PROMPT, newline=False)
        for line in lines:
            self.feed_line(line)
            if self._done:
                return
            if interactive:
                prompt = self.CONTINUATION if self._buffer else self.PROMPT
                self._write(prompt, newline=False)
        # Flush a trailing statement missing its semicolon.
        if self._buffer and not self._done:
            self._execute(" ".join(self._buffer))
            self._buffer = []

    def feed_line(self, line: str) -> None:
        """Process one input line (command, or a piece of a statement)."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            self._command(stripped)
            return
        if not stripped:
            return
        self._buffer.append(stripped)
        if stripped.endswith(";"):
            statement = " ".join(self._buffer).rstrip(";").strip()
            self._buffer = []
            if statement:
                self._execute(statement)

    # -- commands ---------------------------------------------------------------

    def _command(self, text: str) -> None:
        parts = text.split(None, 1)
        name = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if name in ("\\quit", "\\q", "\\exit"):
            self._write("bye")
            self._done = True
        elif name == "\\help":
            self._write(__doc__ or "")
        elif name == "\\tables":
            self._show_tables()
        elif name == "\\sources":
            self._show_sources()
        elif name == "\\schema":
            self._show_schema(argument)
        elif name == "\\metrics":
            self._show_metrics()
        elif name == "\\cache":
            self._cache_command(argument)
        elif name == "\\catalog":
            self._show_catalog()
        elif name == "\\trace":
            self._trace_command(argument)
        elif name == "\\naive":
            if argument.lower() in ("on", "off"):
                self.naive = argument.lower() == "on"
            else:
                self.naive = not self.naive
            self._write(f"naive mode {'ON' if self.naive else 'OFF'}")
        elif name == "\\parallel":
            if argument.lower() in ("off", "1", ""):
                self.parallel = 1
                self._write("parallel fragment execution OFF (sequential)")
            elif argument.isdigit() and int(argument) > 1:
                self.parallel = int(argument)
                self._write(
                    f"parallel fragment execution ON "
                    f"({self.parallel} workers)"
                )
            else:
                self._write("usage: \\parallel <N>|off")
        elif name == "\\batch":
            if argument.lower() in ("off", ""):
                self.batch = None
                self._write("batch size: planner default")
            elif argument.isdigit() and int(argument) >= 1:
                self.batch = int(argument)
                self._write(f"batch size: {self.batch} rows")
            else:
                self._write("usage: \\batch <N>|off")
        elif name == "\\health":
            self._show_health()
        elif name == "\\deadline":
            if argument.lower() in ("off", "0", ""):
                self.deadline_ms = 0.0
                self._write("query deadline OFF")
            else:
                try:
                    value = float(argument)
                except ValueError:
                    value = -1.0
                if value > 0:
                    self.deadline_ms = value
                    self._write(f"query deadline {value:g} ms")
                else:
                    self._write("usage: \\deadline <MS>|off")
        elif name == "\\partial":
            if argument.lower() in ("on", "off"):
                self.partial = argument.lower() == "on"
            else:
                self.partial = self._options().on_source_failure != "partial"
            mode = "partial" if self.partial else "fail"
            self._write(f"on-source-failure mode: {mode}")
        elif name == "\\analyze":
            collected = self.gis.analyze()
            self._write(f"analyzed {len(collected)} tables")
        elif name == "\\explain":
            if not argument:
                self._write("usage: \\explain <query>")
            else:
                self._guard(lambda: self._write(
                    self.gis.explain(argument.rstrip(";"), self._options())
                ))
        elif name == "\\profile":
            if not argument:
                self._write("usage: \\profile <query>")
            else:
                self._guard(lambda: self._write(
                    self.gis.explain_analyze(argument.rstrip(";"), self._options())
                ))
        else:
            self._write(f"unknown command {name!r}; try \\help")

    def _show_metrics(self) -> None:
        if self.last_result is None:
            self._write("no query executed yet")
        else:
            self._write(self.last_result.metrics.summary())
        obs = self.gis.obs
        if obs.registry.enabled:
            states = obs.publish_breakers(self.gis.breakers)
            self._write("")
            self._write(obs.registry.format_snapshot())
            for source, info in sorted(states.items()):
                self._write(
                    f"  breaker {source}: {info['state']} "
                    f"({info['trips']} trips)"
                )

    def _cache_command(self, argument: str) -> None:
        gis = self.gis
        if argument.lower() == "clear":
            dropped = gis.fragment_cache.clear()
            self._write(f"cleared {dropped} fragment cache entries")
            return
        if argument:
            self._write("usage: \\cache [clear]")
            return
        fragment = gis.fragment_cache
        if fragment.enabled:
            stats = fragment.stats()
            self._write(
                f"fragment cache: {stats['entries']} entries / "
                f"{stats['bytes']:.0f} of {stats['budget_bytes']} bytes; "
                f"{stats['hits']} exact + {stats['subsumed_hits']} subsumed "
                f"hits, {stats['misses']} misses "
                f"(hit rate {stats['hit_rate']:.0%}); "
                f"{stats['evictions']} evictions, "
                f"{stats['rejected_stale']} stale rejections"
            )
        else:
            self._write("fragment cache: OFF (fragment_cache_bytes = 0)")
        materialized = gis.materialized.stats()
        if materialized["views"]:
            self._write(
                f"materialized views: {materialized['hits']} snapshot hits, "
                f"{materialized['stale_substitutions']} stale fallbacks"
            )
            for entry in materialized["entries"]:
                fresh = "fresh" if gis.materialized.fresh(entry["name"]) else "stale"
                self._write(
                    f"  {entry['name']}: {entry['rows']} rows ({fresh}), "
                    f"staleness {entry['staleness_ms']:g} ms, "
                    f"{entry['refreshes']} refreshes, {entry['hits']} hits, "
                    f"sources {', '.join(entry['sources'])}"
                )
        else:
            self._write("materialized views: none")

    def _show_catalog(self) -> None:
        status = self.gis.catalog_status()
        self._write(f"catalog epoch: {status['catalog_epoch']}")
        self._write("sources:")
        if not status["sources"]:
            self._write("  (none)")
        for source in status["sources"]:
            spec = "declarative" if source["recoverable"] else "ephemeral"
            self._write(
                f"  {source['name']}: epoch {source['epoch']}, "
                f"{source['tables']} tables, {spec}"
            )
        self._write("tables:")
        if not status["tables"]:
            self._write("  (none)")
        for table in status["tables"]:
            if table["kind"] == "view":
                self._write(f"  {table['name']}  (view)")
                continue
            stats = "analyzed" if table["analyzed"] else "no stats"
            line = (
                f"  {table['name']}  ->  {table['source']} "
                f"(schema v{table['schema_version']}, "
                f"stats v{table['stats_version']}, {stats}"
            )
            if table["replicas"]:
                line += f", {table['replicas']} replicas"
            self._write(line + ")")
        if status["materialized"]:
            self._write(
                "materialized views: " + ", ".join(status["materialized"])
            )
        journal = status["journal"]
        if journal is None:
            self._write("journal: OFF (no catalog.journal configured)")
        else:
            self._write(
                f"journal: {journal['path']} @ seq {journal['seq']} "
                f"(last snapshot seq {journal['last_snapshot_seq']}, "
                f"{journal['records_since_snapshot']} records since, "
                f"interval {journal['snapshot_interval']})"
            )
        recovery = status["recovery"]
        if recovery is not None and recovery.get("recovered"):
            self._write(
                f"recovered: {recovery['records_replayed']} records replayed"
                + (
                    f", skipped sources: {', '.join(recovery['skipped_sources'])}"
                    if recovery["skipped_sources"]
                    else ""
                )
            )

    def _show_health(self) -> None:
        sources = list(self.gis.catalog.source_names())
        if not sources:
            self._write("no sources registered")
            return
        status = self.gis.health_status(self._options())
        ledger = self.gis.network.per_source()
        injector = self.gis.fault_injector
        faults = injector.snapshot() if injector is not None else {}
        for name in sources:
            key = name.lower()
            link = self.gis.network.link_for(name)
            entry = status.get(name, {})
            info = entry.get("breaker", {})
            state = str(info.get("state", "closed"))
            trips = info.get("trips", 0)
            failures = info.get("failures", 0)
            line = (
                f"  {name}: breaker {state} "
                f"({trips} trips, {failures} recent failures); "
                f"link {link.latency_ms:.0f}ms/"
                f"{link.bandwidth_bytes_per_s / 1000:.0f}KBps"
            )
            transfers = ledger.get(key)
            if transfers is not None:
                line += (
                    f"; shipped {transfers.rows} rows in "
                    f"{transfers.messages} messages"
                )
            snapshot = faults.get(key)
            if snapshot is not None:
                line += (
                    f"; faults {snapshot.failures}/{snapshot.calls} calls"
                )
            self._write(line)
            if entry.get("samples"):
                self._write(
                    f"    latency ewma {entry['ewma_ms']:.1f}ms, "
                    f"p50 {entry['p50_ms']:.1f}ms / "
                    f"p95 {entry['p95_ms']:.1f}ms / "
                    f"p99 {entry['p99_ms']:.1f}ms "
                    f"({entry['samples']} pages, "
                    f"error rate {entry['error_rate']:.0%})"
                )
            timeout_ms = entry.get("timeout_ms")
            if timeout_ms is not None:
                mode = "adaptive" if entry.get("timeout_adaptive") else "static"
                self._write(f"    timeout {timeout_ms:.0f}ms ({mode})")
            if entry.get("hedges_launched"):
                self._write(
                    f"    hedges {entry['hedges_won']}/"
                    f"{entry['hedges_launched']} won"
                )

    def _trace_command(self, argument: str) -> None:
        obs = self.gis.obs
        lowered = argument.lower()
        if lowered == "on":
            obs.tracer.enable()
            self._write("tracing ON")
        elif lowered == "off":
            obs.tracer.disable()
            self._write("tracing OFF")
        elif argument:
            obs.trace_path = argument
            obs.tracer.enable()
            self._write(f"tracing ON -> {argument}")
        else:
            state = "ON" if obs.tracer.enabled else "OFF"
            line = f"tracing {state} ({len(obs.spans)} spans retained"
            if obs.trace_path:
                line += f", exporting to {obs.trace_path}"
            self._write(line + ")")

    def _show_tables(self) -> None:
        for name in sorted(self.gis.catalog.table_names(), key=str.lower):
            entry = self.gis.catalog.table(name)
            if entry.is_view:
                self._write(f"  {name}  (view)")
            else:
                assert entry.mapping is not None
                self._write(
                    f"  {name}  ->  {entry.mapping.source}."
                    f"{entry.mapping.remote_table}"
                )

    def _show_sources(self) -> None:
        for name in self.gis.catalog.source_names():
            adapter = self.gis.catalog.source(name)
            caps = adapter.capabilities()
            abilities = [
                label
                for label, enabled in (
                    ("filters", caps.filters),
                    ("projection", caps.projection),
                    ("joins", caps.joins),
                    ("aggregation", caps.aggregation),
                    ("sort", caps.sort),
                    ("limit", caps.limit),
                )
                if enabled
            ]
            if caps.key_equality_only:
                abilities.append("key-lookup")
            link = self.gis.network.link_for(name)
            self._write(
                f"  {name}: [{', '.join(abilities) or 'scan only'}] "
                f"link={link.latency_ms:.0f}ms/"
                f"{link.bandwidth_bytes_per_s/1000:.0f}KBps"
            )

    def _show_schema(self, table_name: str) -> None:
        if not table_name:
            self._write("usage: \\schema <table>")
            return

        def show() -> None:
            entry = self.gis.catalog.table(table_name)
            schema = entry.schema
            if schema is None:
                self._write(f"{table_name}: schema not yet derived (query it once)")
                return
            statistics = self.gis.catalog.statistics(table_name)
            for column in schema.columns:
                line = f"  {column.name}  {column.dtype}"
                if statistics is not None:
                    column_stats = statistics.column(column.name)
                    if column_stats is not None:
                        line += (
                            f"  (ndv≈{column_stats.distinct_count:.0f}, "
                            f"nulls={column_stats.null_fraction:.0%})"
                        )
                self._write(line)
            if statistics is not None:
                self._write(f"  ~{statistics.row_count:.0f} rows")

        self._guard(show)

    # -- execution ---------------------------------------------------------------

    def _options(self) -> PlannerOptions:
        """The session's knobs layered on the mediator's configured
        options, so a config file's settings survive ``\\batch`` & co."""
        changes = dict(_NAIVE_CHANGES) if self.naive else {}
        if self.parallel is not None:
            changes["max_parallel_fragments"] = self.parallel
        if self.batch is not None:
            changes["batch_size"] = self.batch
        if self.deadline_ms is not None:
            changes["deadline_ms"] = self.deadline_ms
        if self.partial is not None:
            changes["on_source_failure"] = "partial" if self.partial else "fail"
        options = self.gis.planner.options
        return options.but(**changes) if changes else options

    def _execute(self, sql: str) -> None:
        def run_query() -> None:
            result = self.gis.query(sql, self._options())
            self.last_result = result
            if not result.complete:
                self._write("!! PARTIAL RESULT — excluded sources:")
                for source, reason in sorted(result.excluded_sources.items()):
                    self._write(f"!!   {source}: {reason}")
            self._write(result.format_table())
            tail = "" if result.complete else "; PARTIAL"
            self._write(
                f"({len(result)} rows; {result.metrics.simulated_ms:.1f} ms "
                f"simulated network{tail})"
            )

        self._guard(run_query)

    def _guard(self, action) -> None:
        try:
            action()
        except GISError as error:
            self._write(f"error: {error}")

    def _write(self, text: str, newline: bool = True) -> None:
        self.out.write(text + ("\n" if newline else ""))
        self.out.flush()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive shell over a GIS federation.",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="build the TPC-H-lite demo federation (6 sources, 8 tables)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="demo data scale factor (default 0.5)",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="build the federation from a JSON config (see repro.config)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="trace every query and keep FILE updated in the Chrome "
        "trace_event format (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="log queries slower than MS wall-clock milliseconds",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="rows per columnar page between operators "
        "(default: planner default; 1 = row-at-a-time)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="abort queries that exceed MS wall-clock milliseconds",
    )
    parser.add_argument(
        "--partial-results",
        action="store_true",
        help="degrade to partial results (with the missing sources "
        "reported) when a source stays down, instead of failing",
    )
    parser.add_argument(
        "--serve",
        nargs="?",
        const="127.0.0.1:7432",
        metavar="HOST:PORT",
        help="run the multi-tenant query service instead of the REPL "
        "(default 127.0.0.1:7432; a 'serve' config section supplies "
        "tenants/quotas — see docs/serving.md)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=None,
        metavar="N",
        help="executor threads for --serve (overrides config)",
    )
    parser.add_argument(
        "--client",
        metavar="HOST:PORT",
        help="connect to a running query service as a client REPL "
        "instead of embedding a mediator",
    )
    parser.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="tenant id for --client (default: 'default')",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="tenant token for --client, when the server requires one",
    )
    arguments = parser.parse_args(argv)

    if arguments.client:
        return _client_main(arguments, parser)

    if arguments.batch_size is not None:
        from .errors import PlanError

        try:
            # Validate through the same gate every other entry point uses.
            PlannerOptions(batch_size=arguments.batch_size)
        except PlanError as error:
            parser.error(str(error))

    if arguments.config:
        from .config import load_config

        sys.stderr.write(f"loading federation from {arguments.config}...\n")
        gis = load_config(arguments.config)
    elif arguments.demo:
        from .workloads import build_federation

        sys.stderr.write("building demo federation...\n")
        gis = build_federation(scale=arguments.scale).gis
    else:
        sys.stderr.write(
            "note: empty federation (use --demo for sample data); "
            "register sources programmatically for real use\n"
        )
        gis = GlobalInformationSystem()

    if arguments.trace_out:
        gis.obs.trace_path = arguments.trace_out
        gis.obs.tracer.enable()
    if arguments.slow_query_ms > 0:
        gis.obs.slow_queries.threshold_ms = float(arguments.slow_query_ms)

    if arguments.serve is not None:
        return _serve_main(gis, arguments, parser)

    repl = Repl(gis)
    if arguments.batch_size is not None:
        repl.batch = arguments.batch_size
    if arguments.deadline_ms > 0:
        repl.deadline_ms = float(arguments.deadline_ms)
    if arguments.partial_results:
        repl.partial = True
    try:
        repl.run(sys.stdin, interactive=sys.stdin.isatty())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_address(text: str, parser) -> "tuple[str, int]":
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"expected HOST:PORT, got {text!r}")
    return host, int(port_text)


def _serve_main(gis: GlobalInformationSystem, arguments, parser) -> int:
    """Run the query service until interrupted (``--serve``)."""
    import json
    import time as time_module

    from .serve import QueryServer
    from .serve.session import ServerConfig

    config = ServerConfig()
    if arguments.config:
        from .config import build_server_config

        with open(arguments.config) as handle:
            raw = json.load(handle)
        if "serve" in raw:
            config = build_server_config(raw["serve"])
    host, port = _parse_address(arguments.serve, parser)
    config.host, config.port = host, port
    if arguments.serve_workers is not None:
        if arguments.serve_workers < 1:
            parser.error("--serve-workers must be >= 1")
        config.max_workers = arguments.serve_workers
    if gis.plan_cache.capacity == 0:
        # Serving means repeat traffic; an unset plan cache would waste it.
        gis.plan_cache.capacity = 256

    server = QueryServer(gis, config)
    bound_host, bound_port = server.start_background()
    sys.stderr.write(
        f"query service listening on {bound_host}:{bound_port} "
        f"({config.max_workers} workers); Ctrl-C to stop\n"
    )
    try:
        while True:
            time_module.sleep(3600)
    except KeyboardInterrupt:
        sys.stderr.write("shutting down...\n")
    finally:
        server.stop_background()
    return 0


def _client_main(arguments, parser) -> int:
    """Line-oriented client REPL against a remote query service."""
    from .serve import ServeClient

    host, port = _parse_address(arguments.client, parser)
    try:
        client = ServeClient(
            host, port, tenant=arguments.tenant, token=arguments.token
        )
    except (OSError, GISError) as error:
        sys.stderr.write(f"cannot connect to {host}:{port}: {error}\n")
        return 1
    defaults = {}
    if arguments.deadline_ms > 0:
        defaults["deadline_ms"] = float(arguments.deadline_ms)
    if arguments.partial_results:
        defaults["partial"] = True
    if defaults:
        client.set_defaults(**defaults)
    interactive = sys.stdin.isatty()
    out = sys.stdout
    if interactive:
        out.write(f"connected to {host}:{port} as tenant "
                  f"{arguments.tenant!r}\ngis> ")
        out.flush()
    buffer: List[str] = []
    try:
        for line in sys.stdin:
            stripped = line.strip()
            if stripped in ("\\quit", "\\q", "\\exit"):
                break
            if stripped:
                buffer.append(stripped)
                if stripped.endswith(";"):
                    sql = " ".join(buffer).rstrip(";").strip()
                    buffer = []
                    if sql:
                        _run_remote(client, sql, out)
            if interactive:
                out.write("...> " if buffer else "gis> ")
                out.flush()
        if buffer:
            _run_remote(client, " ".join(buffer), out)
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 0


def _run_remote(client, sql: str, out: IO[str]) -> None:
    """Execute one remote statement and print a small result table."""
    try:
        result = client.query(sql)
    except GISError as error:
        out.write(f"error: {error}\n")
        return
    if not result.complete:
        out.write("!! PARTIAL RESULT — excluded sources:\n")
        for source, reason in sorted(result.excluded_sources.items()):
            out.write(f"!!   {source}: {reason}\n")
    widths = [len(name) for name in result.column_names]
    rendered = [
        ["NULL" if cell is None else str(cell) for cell in row]
        for row in result.rows
    ]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = " | ".join(
        name.ljust(widths[i]) for i, name in enumerate(result.column_names)
    )
    out.write(header + "\n")
    out.write("-+-".join("-" * width for width in widths) + "\n")
    for row in rendered:
        out.write(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            + "\n"
        )
    metrics = result.metrics
    out.write(
        f"({len(result.rows)} rows; wall {metrics.get('wall_ms', 0.0):.1f} ms; "
        f"plan cache {'hit' if metrics.get('plan_cache_hit') else 'miss'})\n"
    )
