"""Builds each workload's federation from ``(workload, seed)`` through the
mediator's public API only (the server child imports this)."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.catalog.schema import schema_from_pairs
from repro.core.mediator import GlobalInformationSystem
from repro.core.planner import PlannerOptions
from repro.sources import (
    CsvSource,
    KeyValueSource,
    MemorySource,
    NetworkLink,
    RestSource,
    SQLiteSource,
)
from repro.workloads.tpch_lite import generate_rows

from . import spec

Rows = Dict[str, List[Tuple[Any, ...]]]


def injected_wait() -> None:
    """The fanout link's real wait; a module function so the traced run
    can time it apart from the adapter's own fetch."""
    time.sleep(spec.FANOUT_INJECTED_WAIT_S)


class SlowLinkAdapter:
    """Delegating wrapper that waits real time before the first page.

    It overrides ``execute_pages`` because that is the method the engine
    calls; a wrapper that only overrides ``execute`` is bypassed (the
    delegation below forwards ``execute_pages`` straight to the inner
    adapter) and injects nothing.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def __getattr__(self, item: str) -> Any:
        return getattr(self._inner, item)

    def execute_pages(self, fragment: Any, page_rows: int):
        injected_wait()
        yield from self._inner.execute_pages(fragment, page_rows)


def _schema(table: str):
    return schema_from_pairs(table, spec.TABLE_COLUMNS[table])


def build_standard(
    workload: spec.WorkloadSpec, rows: Rows, csv_dir: str
) -> GlobalInformationSystem:
    """tpch-lite in the standard seven-source layout, with the links of
    ``repro.workloads.build_federation``."""
    refdata = MemorySource("refdata")
    refdata.add_table("regions", _schema("regions"), rows["regions"])
    refdata.add_table("nations", _schema("nations"), rows["nations"])
    crm = SQLiteSource("crm")
    crm.load_table("customers", _schema("customers"), rows["customers"])
    erp = SQLiteSource("erp")
    erp.load_table("orders", _schema("orders"), rows["orders"])
    wms = SQLiteSource("wms")
    wms.load_table("lineitems", _schema("lineitems"), rows["lineitems"])
    CsvSource.write_table(csv_dir, "parts", _schema("parts"), rows["parts"])
    archive = CsvSource("archive", csv_dir, {"parts": _schema("parts")})
    vendors = RestSource("vendors", page_rows=50)
    vendors.add_table("suppliers", _schema("suppliers"), rows["suppliers"])
    support = KeyValueSource("support")
    support.add_table(
        "profiles", _schema("profiles"), "u_cust_id", rows["profiles"]
    )

    gis = GlobalInformationSystem(
        plan_cache_size=spec.PLAN_CACHE_SIZE,
        fragment_cache_bytes=workload.fragment_cache_bytes,
    )
    for name, adapter, link in (
        ("refdata", refdata, NetworkLink(5.0, 10_000_000.0)),
        ("crm", crm, NetworkLink(25.0, 1_000_000.0)),
        ("erp", erp, NetworkLink(30.0, 2_000_000.0)),
        ("wms", wms, NetworkLink(35.0, 2_000_000.0)),
        ("archive", archive, NetworkLink(15.0, 500_000.0)),
        ("vendors", vendors, NetworkLink(80.0, 250_000.0)),
        ("support", support, NetworkLink(10.0, 1_000_000.0)),
    ):
        gis.register_source(name, adapter, link=link)
    for table, source in (
        ("regions", "refdata"), ("nations", "refdata"),
        ("customers", "crm"), ("orders", "erp"), ("lineitems", "wms"),
        ("parts", "archive"), ("suppliers", "vendors"),
        ("profiles", "support"),
    ):
        gis.register_table(table, source=source)
    return gis


def build_fanout(rows: Rows) -> GlobalInformationSystem:
    """``orders_all`` over eight range-partitioned SQLite shards plus
    ``customers`` on a ninth source, every adapter behind a slow link."""
    gis = GlobalInformationSystem(
        options=PlannerOptions(
            max_parallel_fragments=spec.FANOUT_PARALLEL_FRAGMENTS
        ),
        plan_cache_size=spec.PLAN_CACHE_SIZE,
    )
    orders = rows["orders"]
    branches = []
    for index in range(spec.FANOUT_SHARDS):
        source = f"erp{index}"
        shard = SQLiteSource(source)
        low = index * spec.FANOUT_SHARD_ROWS
        shard.load_table(
            "orders_shard", _schema("orders"),
            orders[low : low + spec.FANOUT_SHARD_ROWS],
        )
        gis.register_source(
            source, SlowLinkAdapter(shard),
            link=NetworkLink(30.0, 1_000_000.0),
        )
        gis.register_table(
            f"orders_p{index}", source=source, remote_table="orders_shard"
        )
        branches.append(f"SELECT * FROM orders_p{index}")
    gis.create_view("orders_all", " UNION ALL ".join(branches))
    crm = SQLiteSource("crm")
    crm.load_table("customers", _schema("customers"), rows["customers"])
    gis.register_source(
        "crm", SlowLinkAdapter(crm), link=NetworkLink(25.0, 1_000_000.0)
    )
    gis.register_table("customers", source="crm")
    return gis


def build(
    workload: spec.WorkloadSpec, seed: int, csv_dir: str
) -> Tuple[GlobalInformationSystem, Dict[str, float]]:
    """Generate, load and ANALYZE one workload's federation; returns the
    mediator and the seconds each set-up stage took."""
    started = time.perf_counter()
    rows = generate_rows(workload.scale, seed)
    generated = time.perf_counter()
    if workload.name == "fanout":
        gis = build_fanout(rows)
    else:
        gis = build_standard(workload, rows, csv_dir)
    loaded = time.perf_counter()
    gis.analyze()
    analyzed = time.perf_counter()
    return gis, {
        "generate_s": generated - started,
        "load_s": loaded - generated,
        "analyze_s": analyzed - loaded,
    }
