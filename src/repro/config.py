"""Declarative federation configuration.

Build a whole mediator — sources, links, global tables, replicas,
integration views, planner options — from one plain dictionary (or a JSON
file), instead of imperative registration calls::

    gis = build_from_config({
        "sources": {
            "erp": {
                "type": "sqlite",
                "tables": {
                    "ORDERS": {
                        "columns": [["oid", "INT"], ["total", "FLOAT"]],
                        "rows": [[1, 9.5], [2, 100.0]],
                    }
                },
                "link": {"latency_ms": 30, "bandwidth_bytes_per_s": 2e6},
            }
        },
        "tables": [{"name": "orders", "source": "erp",
                    "remote_table": "ORDERS"}],
        "views": {"big": "SELECT * FROM orders WHERE total > 50"},
        "analyze": True,
    })

Source ``type`` values: ``sqlite`` (optional ``path`` for a database file;
tables with ``rows`` are created, tables without are declared over existing
native tables), ``memory``, ``csv`` (requires ``directory``; ``rows``
are materialized as files when given), ``keyvalue`` (each table needs a
``key`` column), ``rest`` (optional ``page_rows``).

Every section, the top level included, rejects keys it does not know,
so a typo (or a key of a removed feature) fails loudly instead of being
silently ignored.

A top-level ``scheduler`` section configures parallel fragment execution
and the robustness envelope (see ``docs/parallel_execution.md``)::

    "scheduler": {
        "max_parallel_fragments": 8,
        "max_parallel_per_source": 2,
        "fragment_timeout_ms": 2000,
        "retry": {"retries": 3, "backoff_ms": 50, "multiplier": 2,
                  "max_ms": 5000, "jitter": 0.2},
        "circuit_breaker": {"failure_threshold": 5, "reset_ms": 30000}
    }

A top-level ``observability`` section arms the tracing/metrics subsystem
(see ``docs/observability.md``)::

    "observability": {
        "trace": true,                       # record spans for every query
        "trace_out": "trace.json",           # Chrome trace_event file
        "trace_jsonl": "spans.jsonl",        # streaming span log
        "metrics": true,                     # aggregate the metrics registry
        "slow_query_ms": 250,                # slow-query log threshold
        "slow_query_log": "slow.jsonl"       # optional slow-query file
    }

A top-level ``tail`` section arms the tail-tolerance machinery —
adaptive no-progress timeouts, hedged fragment fetches, and
health-aware replica routing (see ``docs/resilience.md``)::

    "tail": {
        "adaptive_timeout": true,            # clamp(k * p99, floor, ceiling)
        "timeout_multiplier": 3.0,
        "timeout_floor_ms": 50.0,
        "timeout_ceiling_ms": 30000.0,
        "hedge": true,                       # duplicate slow fetches
        "hedge_delay_ms": 50.0,              # cold-start hedge delay
        "hedge_quantile": 0.95,              # observed delay once warm
        "health_routing": true               # prefer healthy replicas
    }

A top-level ``resilience`` section sets the query deadline and the
partial-result policy, and a ``faults`` section scripts deterministic
per-source failures (see ``docs/resilience.md``)::

    "resilience": {
        "deadline_ms": 5000,                 # per-query budget; 0 = off
        "on_source_failure": "partial"       # or "fail" (the default)
    },
    "faults": {
        "seed": 7,
        "sources": {
            "erp": {"fail_connect": 2, "latency_ms": 50.0},
            "crm": {"fail_every": 3, "recover_after": 5}
        }
    }

A top-level ``plan_cache_size`` enables the plan-shape cache (queries
differing only in literals share one optimized plan), and a ``cache``
section arms the semantic fragment cache and declares materialized views
(see ``docs/caching.md``)::

    "plan_cache_size": 256,
    "cache": {
        "fragment_bytes": 1048576,           # LRU budget; 0 = off
        "materialized_views": {
            "top_accounts": {
                "sql": "SELECT id, total FROM accounts WHERE total > 1000",
                "staleness_ms": 60000
            }
        }
    }

A ``catalog`` section arms catalog persistence: every catalog operation
is appended to a JSONL journal (compacted snapshots every
``snapshot_interval`` records), and with ``recover_on_start`` a restarted
mediator replays the journal back to the exact pre-crash catalog instead
of re-applying this file's declarative sections (see
``docs/catalog.md``)::

    "catalog": {
        "journal": "catalog.jsonl",
        "snapshot_interval": 64,
        "recover_on_start": true
    }

A ``serve`` section configures the multi-tenant query service
(``--serve``; see ``docs/serving.md``)::

    "serve": {
        "host": "127.0.0.1",
        "port": 7432,
        "max_workers": 8,
        "default_max_concurrent": 2,
        "default_max_queued": 16,
        "require_known_tenant": false,
        "max_retained_results": 32,
        "tenants": {
            "analytics": {"token": "s3cret", "max_concurrent": 4,
                          "max_queued": 32}
        }
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .catalog.schema import TableSchema, schema_from_pairs
from .core.mediator import GlobalInformationSystem
from .core.planner import PlannerOptions
from .errors import CatalogError, PlanError
from .sources import (
    CsvSource,
    FaultPlan,
    KeyValueSource,
    MemorySource,
    NetworkLink,
    RestSource,
    SQLiteSource,
)


def load_config(path: str) -> GlobalInformationSystem:
    """Build a federation from a JSON config file."""
    with open(path) as handle:
        return build_from_config(json.load(handle))


#: Every top-level config key: the ones :func:`build_from_config` reads,
#: plus ``serve``, which only :func:`build_server_config` parses.
_TOP_LEVEL_KEYS = (
    "sources", "tables", "replicas", "views", "analyze", "options",
    "fragment_retries", "scheduler", "resilience", "tail", "observability",
    "faults", "cache", "catalog", "plan_cache_size", "serve",
)


def build_from_config(config: Dict[str, Any]) -> GlobalInformationSystem:
    """Build a federation from a configuration dictionary (see module doc)."""
    _check_keys("the top level", config, _TOP_LEVEL_KEYS)
    options = None
    if "options" in config:
        options = PlannerOptions(**config["options"])
    fragment_retries = int(config.get("fragment_retries", 0))
    if "scheduler" in config:
        options, fragment_retries = _apply_scheduler_config(
            config["scheduler"], options, fragment_retries
        )
    if "resilience" in config:
        options = _apply_resilience_config(config["resilience"], options)
    if "tail" in config:
        options = _apply_tail_config(config["tail"], options)
    observability = None
    if "observability" in config:
        observability = _build_observability(config["observability"])
    faults = None
    if "faults" in config:
        faults = FaultPlan.from_config(config["faults"])
    fragment_cache_bytes = 0
    materialized_specs: Dict[str, Dict[str, Any]] = {}
    if "cache" in config:
        fragment_cache_bytes, materialized_specs = _parse_cache_config(
            config["cache"]
        )
    journal_path, snapshot_interval, recover = None, 64, False
    if "catalog" in config:
        journal_path, snapshot_interval, recover = _parse_catalog_config(
            config["catalog"]
        )
    gis = GlobalInformationSystem(
        options=options,
        fragment_retries=fragment_retries,
        observability=observability,
        faults=faults,
        plan_cache_size=int(config.get("plan_cache_size", 0)),
        fragment_cache_bytes=fragment_cache_bytes,
        catalog_journal_path=journal_path,
        catalog_snapshot_interval=snapshot_interval,
        catalog_recover=recover,
    )
    if gis.catalog_recovery is not None and gis.catalog_recovery.get("recovered"):
        # The journal replayed the exact pre-crash catalog; it is the
        # system of record now, so the declarative sections below (which
        # describe the *initial* federation) are not re-applied on top.
        return gis

    sources = config.get("sources")
    if not isinstance(sources, dict) or not sources:
        raise CatalogError("config requires a non-empty 'sources' mapping")
    for name, spec in sources.items():
        adapter = _build_source(name, spec)
        link = _build_link(spec.get("link"))
        gis.register_source(name, adapter, link=link, spec=spec)

    for entry in config.get("tables", []):
        gis.register_table(
            entry["name"],
            source=entry["source"],
            remote_table=entry.get("remote_table"),
            column_map=entry.get("column_map"),
        )
    for entry in config.get("replicas", []):
        gis.register_replica(
            entry["name"],
            source=entry["source"],
            remote_table=entry.get("remote_table"),
            column_map=entry.get("column_map"),
        )
    for name, sql in config.get("views", {}).items():
        gis.create_view(name, sql)

    if config.get("analyze", False):
        gis.analyze()
    # Materialized views last: their initial snapshots execute real queries
    # and want statistics/views in place.
    for name, view_spec in materialized_specs.items():
        gis.create_materialized_view(
            name,
            view_spec["sql"],
            staleness_ms=view_spec.get("staleness_ms", 0.0),
        )
    return gis


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _int_option(section: str, spec: Dict[str, Any], key: str) -> Optional[int]:
    if key not in spec:
        return None
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CatalogError(
            f"config: {section}{key!r} must be an integer (got {value!r})"
        )
    return value


def _float_option(section: str, spec: Dict[str, Any], key: str) -> Optional[float]:
    if key not in spec:
        return None
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CatalogError(
            f"config: {section}{key!r} must be a number (got {value!r})"
        )
    return float(value)


def _parse_cache_config(spec: Any):
    """Parse the declarative ``cache`` section.

    Mirrors the other sections' strictness: unknown keys are rejected so a
    typo cannot silently disable the cache.
    """
    if not isinstance(spec, dict):
        raise CatalogError("config: 'cache' must be an object")
    _check_keys("cache", spec, ("fragment_bytes", "materialized_views"))
    budget = _int_option("cache.", spec, "fragment_bytes") or 0
    if budget < 0:
        raise CatalogError(
            f"config: cache.fragment_bytes must be >= 0 (got {budget})"
        )
    materialized = spec.get("materialized_views", {})
    if not isinstance(materialized, dict):
        raise CatalogError("config: cache.materialized_views must be an object")
    for name, view_spec in materialized.items():
        if not isinstance(view_spec, dict):
            raise CatalogError(
                f"config: cache.materialized_views[{name!r}] must be an object"
            )
        _check_keys(
            f"cache.materialized_views[{name!r}]",
            view_spec,
            ("sql", "staleness_ms"),
        )
        if not isinstance(view_spec.get("sql"), str):
            raise CatalogError(
                f"config: cache.materialized_views[{name!r}] requires "
                f"a 'sql' string"
            )
        _float_option(
            f"cache.materialized_views[{name!r}].", view_spec, "staleness_ms"
        )
    return budget, materialized


def _parse_catalog_config(spec: Any):
    """Parse the declarative ``catalog`` section (persistence & recovery).

    Mirrors the other sections' strictness: unknown keys are rejected so
    a typo cannot silently run without a journal.
    """
    if not isinstance(spec, dict):
        raise CatalogError("config: 'catalog' must be an object")
    _check_keys(
        "catalog", spec, ("journal", "snapshot_interval", "recover_on_start")
    )
    journal = spec.get("journal")
    if not isinstance(journal, str) or not journal:
        raise CatalogError(
            f"config: catalog.'journal' must be a non-empty path string "
            f"(got {journal!r})"
        )
    interval = _int_option("catalog.", spec, "snapshot_interval")
    if interval is None:
        interval = 64
    elif interval < 1:
        raise CatalogError(
            f"config: catalog.snapshot_interval must be >= 1 (got {interval})"
        )
    recover = spec.get("recover_on_start", False)
    if not isinstance(recover, bool):
        raise CatalogError(
            f"config: catalog.'recover_on_start' must be a boolean "
            f"(got {recover!r})"
        )
    return journal, interval, recover


def _check_keys(section: str, spec: Dict[str, Any], allowed: tuple) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise CatalogError(
            f"unknown config key(s) {unknown} in {section}; "
            f"allowed: {sorted(allowed)}"
        )


def _apply_scheduler_config(
    spec: Any, options: Optional[PlannerOptions], fragment_retries: int
):
    """Fold the declarative ``scheduler`` section into planner options.

    Returns the updated ``(options, fragment_retries)`` pair. Every key is
    validated with a specific error message; unknown keys are rejected so
    typos cannot silently disable a knob.
    """
    if not isinstance(spec, dict):
        raise CatalogError(
            f"'scheduler' config must be a mapping (got {type(spec).__name__})"
        )
    _check_keys(
        "scheduler",
        spec,
        (
            "max_parallel_fragments",
            "max_parallel_per_source",
            "fragment_timeout_ms",
            "retry",
            "circuit_breaker",
        ),
    )
    changes: Dict[str, Any] = {}
    for key, reader in (
        ("max_parallel_fragments", _int_option),
        ("max_parallel_per_source", _int_option),
        ("fragment_timeout_ms", _float_option),
    ):
        value = reader("", spec, key)
        if value is not None:
            changes[key] = value

    retry = spec.get("retry", {})
    if not isinstance(retry, dict):
        raise CatalogError(
            f"scheduler 'retry' config must be a mapping "
            f"(got {type(retry).__name__})"
        )
    _check_keys(
        "scheduler.retry", retry,
        ("retries", "backoff_ms", "multiplier", "max_ms", "jitter"),
    )
    retries = _int_option("retry.", retry, "retries")
    if retries is not None:
        if retries < 0:
            raise CatalogError(
                f"scheduler config: retry.'retries' must be >= 0 (got {retries})"
            )
        fragment_retries = retries
    for config_key, option_key, reader in (
        ("backoff_ms", "retry_backoff_ms", _float_option),
        ("multiplier", "retry_backoff_multiplier", _float_option),
        ("max_ms", "retry_backoff_max_ms", _float_option),
        ("jitter", "retry_jitter", _float_option),
    ):
        value = reader("retry.", retry, config_key)
        if value is not None:
            changes[option_key] = value

    breaker = spec.get("circuit_breaker", {})
    if not isinstance(breaker, dict):
        raise CatalogError(
            f"scheduler 'circuit_breaker' config must be a mapping "
            f"(got {type(breaker).__name__})"
        )
    _check_keys(
        "scheduler.circuit_breaker", breaker, ("failure_threshold", "reset_ms")
    )
    threshold = _int_option("circuit_breaker.", breaker, "failure_threshold")
    if threshold is not None:
        changes["breaker_failure_threshold"] = threshold
    reset_ms = _float_option("circuit_breaker.", breaker, "reset_ms")
    if reset_ms is not None:
        changes["breaker_reset_ms"] = reset_ms

    if changes:
        try:
            options = (options or PlannerOptions()).but(**changes)
        except PlanError as exc:
            raise CatalogError(f"invalid scheduler config: {exc}") from exc
    return options, fragment_retries


def _apply_resilience_config(
    spec: Any, options: Optional[PlannerOptions]
) -> PlannerOptions:
    """Fold the declarative ``resilience`` section into planner options.

    Mirrors the scheduler section's strictness: every key is validated and
    unknown keys are rejected.
    """
    if not isinstance(spec, dict):
        raise CatalogError(
            f"'resilience' config must be a mapping (got {type(spec).__name__})"
        )
    _check_keys("resilience", spec, ("deadline_ms", "on_source_failure"))
    changes: Dict[str, Any] = {}
    deadline = _float_option("resilience.", spec, "deadline_ms")
    if deadline is not None:
        changes["deadline_ms"] = deadline
    if "on_source_failure" in spec:
        mode = spec["on_source_failure"]
        if not isinstance(mode, str):
            raise CatalogError(
                "resilience config: 'on_source_failure' must be a string "
                f"(got {mode!r})"
            )
        changes["on_source_failure"] = mode
    try:
        return (options or PlannerOptions()).but(**changes)
    except PlanError as exc:
        raise CatalogError(f"invalid resilience config: {exc}") from exc


def _apply_tail_config(
    spec: Any, options: Optional[PlannerOptions]
) -> PlannerOptions:
    """Fold the declarative ``tail`` section into planner options.

    Mirrors the scheduler section's strictness: every key is validated
    and unknown keys are rejected so a typo cannot silently leave
    hedging or adaptive timeouts disarmed.
    """
    if not isinstance(spec, dict):
        raise CatalogError(
            f"'tail' config must be a mapping (got {type(spec).__name__})"
        )
    _check_keys(
        "tail",
        spec,
        (
            "adaptive_timeout",
            "timeout_multiplier",
            "timeout_floor_ms",
            "timeout_ceiling_ms",
            "hedge",
            "hedge_delay_ms",
            "hedge_quantile",
            "health_routing",
        ),
    )
    changes: Dict[str, Any] = {}
    for config_key, option_key in (
        ("adaptive_timeout", "adaptive_timeout"),
        ("hedge", "hedge_fragments"),
        ("health_routing", "health_routing"),
    ):
        if config_key in spec:
            value = spec[config_key]
            if not isinstance(value, bool):
                raise CatalogError(
                    f"tail config: {config_key!r} must be a boolean "
                    f"(got {value!r})"
                )
            changes[option_key] = value
    for key in (
        "timeout_multiplier",
        "timeout_floor_ms",
        "timeout_ceiling_ms",
        "hedge_delay_ms",
        "hedge_quantile",
    ):
        value = _float_option("tail.", spec, key)
        if value is not None:
            changes[key] = value
    try:
        return (options or PlannerOptions()).but(**changes)
    except PlanError as exc:
        raise CatalogError(f"invalid tail config: {exc}") from exc


def _build_observability(spec: Any) -> "Observability":
    """Construct the mediator's observability bundle from config.

    Mirrors the scheduler section's strictness: every key is validated and
    unknown keys are rejected so a typo cannot silently disable tracing.
    """
    from .obs import Observability

    if not isinstance(spec, dict):
        raise CatalogError(
            f"'observability' config must be a mapping (got {type(spec).__name__})"
        )
    _check_keys(
        "observability",
        spec,
        ("trace", "trace_out", "trace_jsonl", "metrics",
         "slow_query_ms", "slow_query_log"),
    )
    for key in ("trace", "metrics"):
        if key in spec and not isinstance(spec[key], bool):
            raise CatalogError(
                f"observability config: {key!r} must be a boolean "
                f"(got {spec[key]!r})"
            )
    for key in ("trace_out", "trace_jsonl", "slow_query_log"):
        if key in spec and not isinstance(spec[key], str):
            raise CatalogError(
                f"observability config: {key!r} must be a path string "
                f"(got {spec[key]!r})"
            )
    slow_ms = spec.get("slow_query_ms")
    if slow_ms is not None:
        if isinstance(slow_ms, bool) or not isinstance(slow_ms, (int, float)):
            raise CatalogError(
                "observability config: 'slow_query_ms' must be a number "
                f"(got {slow_ms!r})"
            )
        if slow_ms < 0:
            raise CatalogError(
                f"observability config: 'slow_query_ms' must be >= 0 (got {slow_ms})"
            )
    return Observability(
        trace=spec.get("trace", False),
        metrics=spec.get("metrics", False),
        slow_query_ms=slow_ms or 0.0,
        trace_path=spec.get("trace_out"),
        trace_jsonl=spec.get("trace_jsonl"),
        slow_query_path=spec.get("slow_query_log"),
    )


def _build_link(spec: Optional[Dict[str, Any]]) -> Optional[NetworkLink]:
    if spec is None:
        return None
    return NetworkLink(
        latency_ms=float(spec.get("latency_ms", 20.0)),
        bandwidth_bytes_per_s=float(spec.get("bandwidth_bytes_per_s", 1e6)),
        message_overhead_bytes=int(spec.get("message_overhead_bytes", 64)),
    )


def _table_parts(name: str, table_spec: Any) -> Dict[str, Any]:
    """Normalize the two table forms: a column list, or a dict with
    columns/rows/key."""
    if isinstance(table_spec, list):
        return {"columns": table_spec, "rows": None, "key": None}
    if isinstance(table_spec, dict):
        if "columns" not in table_spec:
            raise CatalogError(f"table {name!r} config needs 'columns'")
        return {
            "columns": table_spec["columns"],
            "rows": table_spec.get("rows"),
            "key": table_spec.get("key"),
        }
    raise CatalogError(f"table {name!r} config must be a list or mapping")


def _schema_of(name: str, parts: Dict[str, Any]) -> TableSchema:
    pairs = [(column, type_name) for column, type_name in parts["columns"]]
    return schema_from_pairs(name, pairs)


def _build_source(name: str, spec: Dict[str, Any]):
    source_type = spec.get("type")
    tables: Dict[str, Any] = spec.get("tables", {})
    if source_type == "sqlite":
        adapter = SQLiteSource(name, path=spec.get("path", ":memory:"))
        for table_name, table_spec in tables.items():
            parts = _table_parts(table_name, table_spec)
            schema = _schema_of(table_name, parts)
            if parts["rows"] is not None:
                adapter.load_table(table_name, schema, parts["rows"])
            else:
                adapter.declare_table(table_name, schema)
        return adapter
    if source_type == "memory":
        adapter = MemorySource(name)
        for table_name, table_spec in tables.items():
            parts = _table_parts(table_name, table_spec)
            adapter.add_table(
                table_name, _schema_of(table_name, parts), parts["rows"] or []
            )
        return adapter
    if source_type == "csv":
        directory = spec.get("directory")
        if not directory:
            raise CatalogError(f"csv source {name!r} requires 'directory'")
        schemas: Dict[str, TableSchema] = {}
        for table_name, table_spec in tables.items():
            parts = _table_parts(table_name, table_spec)
            schema = _schema_of(table_name, parts)
            schemas[table_name] = schema
            if parts["rows"] is not None:
                CsvSource.write_table(directory, table_name, schema, parts["rows"])
        return CsvSource(name, directory, schemas,
                         page_rows=int(spec.get("page_rows", 4096)))
    if source_type == "keyvalue":
        adapter = KeyValueSource(name, page_rows=int(spec.get("page_rows", 512)))
        for table_name, table_spec in tables.items():
            parts = _table_parts(table_name, table_spec)
            if not parts["key"]:
                raise CatalogError(
                    f"keyvalue table {table_name!r} requires a 'key' column"
                )
            adapter.add_table(
                table_name,
                _schema_of(table_name, parts),
                parts["key"],
                parts["rows"] or [],
            )
        return adapter
    if source_type == "rest":
        adapter = RestSource(name, page_rows=int(spec.get("page_rows", 100)))
        for table_name, table_spec in tables.items():
            parts = _table_parts(table_name, table_spec)
            adapter.add_table(
                table_name, _schema_of(table_name, parts), parts["rows"] or []
            )
        return adapter
    raise CatalogError(
        f"source {name!r} has unknown type {source_type!r} "
        "(expected sqlite|memory|csv|keyvalue|rest)"
    )


def build_server_config(spec: Any) -> "ServerConfig":
    """Parse the declarative ``serve`` section into a ServerConfig.

    Mirrors the other sections' strictness: unknown keys are rejected so
    a typo cannot silently run the server with default quotas.
    """
    from .serve.session import ServerConfig, TenantConfig

    if not isinstance(spec, dict):
        raise CatalogError(
            f"'serve' config must be a mapping (got {type(spec).__name__})"
        )
    _check_keys(
        "serve",
        spec,
        (
            "host",
            "port",
            "max_workers",
            "default_max_concurrent",
            "default_max_queued",
            "require_known_tenant",
            "max_retained_results",
            "tenants",
        ),
    )
    if "host" in spec and not isinstance(spec["host"], str):
        raise CatalogError(
            f"serve config: 'host' must be a string (got {spec['host']!r})"
        )
    if "require_known_tenant" in spec and not isinstance(
        spec["require_known_tenant"], bool
    ):
        raise CatalogError(
            "serve config: 'require_known_tenant' must be a boolean "
            f"(got {spec['require_known_tenant']!r})"
        )
    kwargs: Dict[str, Any] = {}
    for key in (
        "port", "max_workers", "default_max_concurrent",
        "default_max_queued", "max_retained_results",
    ):
        value = _int_option("serve.", spec, key)
        if value is not None:
            kwargs[key] = value
    if "host" in spec:
        kwargs["host"] = spec["host"]
    if "require_known_tenant" in spec:
        kwargs["require_known_tenant"] = spec["require_known_tenant"]

    tenants: Dict[str, TenantConfig] = {}
    tenant_specs = spec.get("tenants", {})
    if not isinstance(tenant_specs, dict):
        raise CatalogError(
            f"serve config: 'tenants' must be a mapping "
            f"(got {type(tenant_specs).__name__})"
        )
    for name, tenant_spec in tenant_specs.items():
        if not isinstance(tenant_spec, dict):
            raise CatalogError(
                f"serve config: tenant {name!r} must be a mapping "
                f"(got {type(tenant_spec).__name__})"
            )
        _check_keys(
            f"serve.tenants.{name}", tenant_spec,
            ("token", "max_concurrent", "max_queued"),
        )
        token = tenant_spec.get("token")
        if token is not None and not isinstance(token, str):
            raise CatalogError(
                f"serve config: tenant {name!r} 'token' must be a string "
                f"(got {token!r})"
            )
        tenant_kwargs: Dict[str, Any] = {"name": name, "token": token}
        for key in ("max_concurrent", "max_queued"):
            value = _int_option(f"serve.tenants.{name}.", tenant_spec, key)
            if value is not None:
                tenant_kwargs[key] = value
        try:
            tenants[name] = TenantConfig(**tenant_kwargs)
        except ValueError as exc:
            raise CatalogError(
                f"serve config: tenant {name!r}: {exc}"
            ) from exc
    if tenants:
        kwargs["tenants"] = tenants
    try:
        return ServerConfig(**kwargs)
    except ValueError as exc:
        raise CatalogError(f"invalid serve config: {exc}") from exc
