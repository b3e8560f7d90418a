"""CI catalog smoke: crash-recover the mediator, results must not move.

Scripted crash drill, each step a hard gate:

* **warm run** — build a two-source federation from a declarative config
  with the catalog journal on, run a mixed workload, record every result
  and every plan;
* **lifecycle mid-workload** — alter a table, refresh statistics, and
  bump a source epoch so the journal carries real lifecycle traffic, not
  just the initial registrations;
* **crash + recover** — throw the mediator away and rebuild from the
  same config with ``recover_on_start``; the journal must replay to a
  catalog whose plans (``EXPLAIN`` text) are byte-identical and whose
  query results are bit-identical (values *and* Python types) to the
  pre-crash run;
* **epoch monotonicity** — no source epoch, schema version, or the
  global catalog epoch may move backwards across the restart, so cached
  artifacts from the previous life can never be mistaken for fresh;
* **torn first record** — cut a journal inside its very first record,
  then restart twice: the first restart is a cold start over the torn
  bytes, and the second must replay that cold start's journal cleanly
  to the same sources and byte-identical plans.

The scenario table is written to ``benchmarks/results/catalog_smoke.txt``.
Run directly::

    python benchmarks/catalog_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import build_from_config  # noqa: E402

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "catalog_smoke.txt"
)

ROWS = 1_000
REGIONS = ("east", "west", "north", "south")

WORKLOAD = [
    "SELECT COUNT(*) FROM customers",
    "SELECT region, COUNT(*), SUM(score) FROM customers GROUP BY region",
    "SELECT name, total FROM customers, orders "
    "WHERE id = cid AND total > 300 AND region = 'east'",
    "SELECT oid, total FROM big_orders WHERE total > 800",
]


def make_config(journal_path: str) -> dict:
    customers = [
        (i, f"name-{i}", REGIONS[i % len(REGIONS)], float(i % 97))
        for i in range(ROWS)
    ]
    orders = [
        (10_000 + i, i % ROWS, float((i * 37) % 1000)) for i in range(ROWS)
    ]
    return {
        "sources": {
            "crm": {
                "type": "memory",
                "tables": {
                    "CUSTOMERS": {
                        "columns": [
                            ["id", "INT"], ["name", "TEXT"],
                            ["region", "TEXT"], ["score", "FLOAT"],
                        ],
                        "rows": [list(row) for row in customers],
                    }
                },
                "link": {"latency_ms": 20, "bandwidth_bytes_per_s": 1e6},
            },
            "erp": {
                "type": "sqlite",
                "tables": {
                    "ORDERS": {
                        "columns": [
                            ["oid", "INT"], ["cid", "INT"], ["total", "FLOAT"],
                        ],
                        "rows": [list(row) for row in orders],
                    }
                },
                "link": {"latency_ms": 30, "bandwidth_bytes_per_s": 2e6},
            },
        },
        "tables": [
            {"name": "customers", "source": "crm", "remote_table": "CUSTOMERS"},
            {"name": "orders", "source": "erp", "remote_table": "ORDERS"},
        ],
        "views": {
            "big_orders": "SELECT oid, cid, total FROM orders WHERE total > 500"
        },
        "analyze": True,
        "plan_cache_size": 32,
        "cache": {"fragment_bytes": 1 << 22},
        "catalog": {
            "journal": journal_path,
            "snapshot_interval": 16,
            "recover_on_start": True,
        },
    }


def bit_identical(warm_rows, recovered_rows):
    if sorted(warm_rows) != sorted(recovered_rows):
        return False
    return all(
        type(a) is type(b)
        for wr, cr in zip(sorted(warm_rows), sorted(recovered_rows))
        for a, b in zip(wr, cr)
    )


def main() -> int:
    lines = ["== catalog smoke: crash recovery must not move results =="]
    failures = []

    with tempfile.TemporaryDirectory() as tmp:
        config = make_config(os.path.join(tmp, "catalog.jsonl"))

        # -- warm life: workload + real lifecycle traffic ------------------
        warm = build_from_config(config)
        warm.notify_source_changed("crm")
        warm.analyze(["customers"])
        warm_results = {sql: warm.query(sql) for sql in WORKLOAD}
        warm_plans = {sql: warm.explain(sql) for sql in WORKLOAD}
        pre_epochs = warm.catalog.versions.snapshot()
        pre_catalog_epoch = warm.catalog.versions.catalog_epoch
        journal_seq = warm.catalog_journal.position()["seq"]
        lines.append(
            f"warm run:        {len(WORKLOAD)} queries, "
            f"journal at seq {journal_seq}, "
            f"catalog epoch {pre_catalog_epoch}"
        )

        # -- crash + recover ----------------------------------------------
        recovered = build_from_config(config)
        report = recovered.catalog_recovery or {}
        lines.append(
            f"recovery:        replayed {report.get('records_replayed', 0)} "
            f"record(s), snapshot_used={report.get('snapshot_used')}, "
            f"errors={len(report.get('errors', []))}"
        )
        if not report.get("recovered") or report.get("errors"):
            failures.append(f"recovery did not complete cleanly: {report}")

        # -- plans byte-identical, results bit-identical -------------------
        plan_drift = [
            sql for sql in WORKLOAD
            if recovered.explain(sql) != warm_plans[sql]
        ]
        result_drift = []
        for sql in WORKLOAD:
            result = recovered.query(sql)
            twin = warm_results[sql]
            if (
                result.column_names != twin.column_names
                or not bit_identical(result.rows, twin.rows)
            ):
                result_drift.append(sql)
        lines.append(
            f"plan identity:   {len(WORKLOAD) - len(plan_drift)}/"
            f"{len(WORKLOAD)} plans byte-identical after replay"
        )
        lines.append(
            f"result identity: {len(WORKLOAD) - len(result_drift)}/"
            f"{len(WORKLOAD)} results bit-identical after replay"
        )
        if plan_drift:
            failures.append(f"plans drifted after recovery: {plan_drift}")
        if result_drift:
            failures.append(f"results drifted after recovery: {result_drift}")

        # -- version clocks never move backwards ---------------------------
        post_epochs = recovered.catalog.versions.snapshot()
        regressions = [
            source for source, epoch in pre_epochs.items()
            if post_epochs.get(source, 0) < epoch
        ]
        post_catalog_epoch = recovered.catalog.versions.catalog_epoch
        lines.append(
            f"epoch monotone:  catalog epoch {pre_catalog_epoch} -> "
            f"{post_catalog_epoch}, source epochs {pre_epochs} -> "
            f"{post_epochs}"
        )
        if regressions:
            failures.append(f"source epochs regressed: {regressions}")
        if post_catalog_epoch < pre_catalog_epoch:
            failures.append("global catalog epoch regressed across restart")

        # -- torn first record, then two restarts --------------------------
        torn_config = make_config(os.path.join(tmp, "torn.jsonl"))
        torn_path = torn_config["catalog"]["journal"]
        build_from_config(torn_config)
        with open(torn_path, "rb") as handle:
            first_record = handle.readline()
        with open(torn_path, "wb") as handle:
            handle.write(first_record[: len(first_record) // 2])
        cold = build_from_config(torn_config)
        cold_plans = {sql: cold.explain(sql) for sql in WORKLOAD}
        again = build_from_config(torn_config)
        report = again.catalog_recovery or {}
        torn_drift = [
            sql for sql in WORKLOAD if again.explain(sql) != cold_plans[sql]
        ]
        lines.append(
            f"torn first rec:  second restart replayed "
            f"{report.get('records_replayed', 0)} record(s), "
            f"errors={len(report.get('errors', []))}, sources "
            f"{again.catalog.source_names()}, "
            f"{len(WORKLOAD) - len(torn_drift)}/{len(WORKLOAD)} plans "
            f"byte-identical"
        )
        if not report.get("recovered") or report.get("errors"):
            failures.append(
                f"second restart after a torn first record: {report}"
            )
        if again.catalog.source_names() != cold.catalog.source_names():
            failures.append(
                "second restart after a torn first record lost sources: "
                f"{again.catalog.source_names()}"
            )
        if torn_drift:
            failures.append(
                f"plans drifted after a torn first record: {torn_drift}"
            )
    lines.append("")

    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        handle.write("\n".join(lines))
    print("\n".join(lines))

    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
