"""A1 (ablation) — partial aggregation over horizontal partitions and
below cross-source joins.

DESIGN.md calls out local/global aggregation as an ablatable design choice:
an aggregate over a UNION ALL of N partitions can ship raw rows and
aggregate at the mediator, or ship one row per (branch × group). This
bench sweeps the partition count and reports both configurations. Expected
shape: rows shipped collapse from O(total rows) to O(partitions × groups),
and the win grows with data volume.

The same switch groups a join input at its source (eager aggregation): a
``star_revenue``-style query over the tpch-lite federation ships one
``lineitems`` row per part instead of every qualifying line item.
"""

from repro import PlannerOptions
from repro.workloads import build_federation, build_partitioned_orders

from .common import emit, format_row

SQL = (
    "SELECT o_status, COUNT(*), SUM(o_total), AVG(o_total) "
    "FROM orders_all GROUP BY o_status"
)
PARTITIONS = [2, 4, 8]
ROWS_PER_PARTITION = 1000
WIDTHS = (10, 14, 14, 12, 12, 9)
EAGER_WIDTHS = (8, 10, 12, 10, 10)

STAR_SQL = (
    "SELECT p.p_category, SUM(l.l_price * l.l_qty) AS rev FROM parts p "
    "JOIN lineitems l ON p.p_id = l.l_part_id "
    "WHERE l.l_qty >= 4 GROUP BY p.p_category"
)


def normalized(rows):
    return sorted(
        tuple(round(v, 5) if isinstance(v, float) else v for v in row)
        for row in rows
    )


def test_a1_partial_aggregation_ablation(benchmark):
    lines = [
        format_row(
            ("sources", "partial rows", "plain rows", "partial ms", "plain ms", "speedup"),
            WIDTHS,
        ),
        "-" * 84,
    ]
    ratios = []
    for count in PARTITIONS:
        federation = build_partitioned_orders(
            count, ROWS_PER_PARTITION, seed=5, bandwidth=100_000.0
        )
        gis = federation.gis

        gis.network.reset()
        partial = gis.query(SQL, PlannerOptions(partial_aggregation=True))
        gis.network.reset()
        plain = gis.query(SQL, PlannerOptions(partial_aggregation=False))
        # Summation order differs between the two plans; compare to 1e-5.
        assert normalized(partial.rows) == normalized(plain.rows)

        speedup = plain.metrics.simulated_ms / max(partial.metrics.simulated_ms, 1e-9)
        ratios.append(
            plain.metrics.rows_shipped / max(partial.metrics.rows_shipped, 1)
        )
        lines.append(
            format_row(
                (
                    count,
                    partial.metrics.rows_shipped,
                    plain.metrics.rows_shipped,
                    partial.metrics.simulated_ms,
                    plain.metrics.simulated_ms,
                    f"{speedup:.1f}x",
                ),
                WIDTHS,
            )
        )
    emit("a1_partial_agg", "A1: partial aggregation over partitions (ablation)", lines)

    # Shape: every configuration ships orders of magnitude fewer rows.
    assert min(ratios) > 50

    federation = build_partitioned_orders(4, ROWS_PER_PARTITION, seed=5)
    benchmark(
        lambda: federation.gis.query(SQL, PlannerOptions(partial_aggregation=True))
    )


def test_a1_eager_aggregation_below_join():
    federation = build_federation(scale=2.0, seed=5)
    gis = federation.gis
    eager = gis.query(STAR_SQL, PlannerOptions(partial_aggregation=True))
    plain = gis.query(STAR_SQL, PlannerOptions(partial_aggregation=False))
    # The pushed partial SUM adds in another order; compare to 1e-5.
    assert normalized(eager.rows) == normalized(plain.rows)
    lines = [
        format_row(("mode", "rows", "bytes", "messages", "sim ms"), EAGER_WIDTHS),
        "-" * 54,
    ]
    for mode, result in (("eager", eager), ("plain", plain)):
        metrics = result.metrics
        lines.append(
            format_row(
                (
                    mode,
                    metrics.rows_shipped,
                    metrics.bytes_shipped,
                    metrics.messages,
                    metrics.simulated_ms,
                ),
                EAGER_WIDTHS,
            )
        )
    emit(
        "a1_eager_aggregation",
        "A1: eager aggregation below a cross-source join (star_revenue shape)",
        lines,
    )
    assert eager.metrics.rows_shipped * 5 <= plain.metrics.rows_shipped
    assert eager.metrics.bytes_shipped < plain.metrics.bytes_shipped
