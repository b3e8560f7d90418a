"""What both processes must agree on: table columns, the four workloads'
federation settings, the fanout layout and the op-count constants.

Nothing here imports ``repro``; the server child and the load generator
both read it, so a number changed here changes both sides at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Traces, result files and the CSV source's scratch files; never committed.
OUT_DIR = HERE / "out"

#: Global tables of the tpch-lite federation, (column, type) in order.
TABLE_COLUMNS: Dict[str, List[Tuple[str, str]]] = {
    "regions": [("r_id", "INT"), ("r_name", "TEXT")],
    "nations": [("n_id", "INT"), ("n_name", "TEXT"), ("n_region_id", "INT")],
    "customers": [
        ("c_id", "INT"), ("c_name", "TEXT"), ("c_nation_id", "INT"),
        ("c_segment", "TEXT"), ("c_since", "DATE"), ("c_balance", "FLOAT"),
    ],
    "orders": [
        ("o_id", "INT"), ("o_cust_id", "INT"), ("o_date", "DATE"),
        ("o_total", "FLOAT"), ("o_status", "TEXT"),
    ],
    "lineitems": [
        ("l_id", "INT"), ("l_order_id", "INT"), ("l_part_id", "INT"),
        ("l_supplier_id", "INT"), ("l_qty", "INT"), ("l_price", "FLOAT"),
        ("l_discount", "FLOAT"),
    ],
    "parts": [
        ("p_id", "INT"), ("p_name", "TEXT"), ("p_category", "TEXT"),
        ("p_price", "FLOAT"),
    ],
    "suppliers": [
        ("s_id", "INT"), ("s_name", "TEXT"), ("s_nation_id", "INT"),
        ("s_rating", "INT"),
    ],
    "profiles": [
        ("u_cust_id", "INT"), ("u_tier", "TEXT"), ("u_newsletter", "BOOLEAN"),
    ],
}

#: fanout: ``orders_all`` is a UNION ALL view over this many SQLite shards,
#: range-partitioned on ``o_id``; customers live on one more SQLite source.
FANOUT_SHARDS = 8
FANOUT_SHARD_ROWS = 1000
#: Real seconds every fanout adapter sleeps before its first page.
FANOUT_INJECTED_WAIT_S = 0.005
FANOUT_PARALLEL_FRAGMENTS = 4
#: A fanout query touches 8-9 fragments, 4 at a time: at least 2 waves.
FANOUT_LATENCY_FLOOR_MS = 2 * FANOUT_INJECTED_WAIT_S * 1000.0

#: Sources ``repeat_churn`` notifies, round-robin, before every
#: ``CHURN_NOTIFY_EVERY``-th op of client 0.
CHURN_NOTIFY_SOURCES = ("erp", "wms", "crm")
CHURN_NOTIFY_EVERY = 50

PLAN_CACHE_SIZE = 128
SERVER_WORKERS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload's federation and sizing.

    ``round`` is the shape mix as (shape, count) pairs: every op sequence
    is whole shuffled rounds, so every seed runs the same shape counts and
    differs only in literals and order. ``c1_rounds`` / ``c2_rounds`` are
    the rounds per timed phase at the nominal :data:`RUN_SECONDS`, chosen
    so each phase lasts about half of it on the 2-core reference box.
    """

    name: str
    why: str
    scale: float
    fragment_cache_bytes: int
    round: Tuple[Tuple[str, int], ...]
    c1_rounds: int
    c2_rounds: int

    @property
    def round_ops(self) -> int:
        return sum(count for _shape, count in self.round)

    @property
    def shapes(self) -> List[str]:
        return [shape for shape, _count in self.round]


#: Seconds of timed load (c1 + c2) the op counts below are sized for; the
#: ``--seconds`` argument scales the counts linearly from here.
RUN_SECONDS = 20

#: Timed phases are cut into this many equal windows; ``qps_*`` is the
#: median window rate and the window spread feeds ``compare``'s
#: *unresolved* verdict.
WINDOWS = 4

WORKLOADS: Dict[str, WorkloadSpec] = {
    workload.name: workload
    for workload in (
        WorkloadSpec(
            name="lookup",
            why=(
                "Sub-2 ms queries where parse, plan-cache rebind, protocol "
                "and serve-tier hand-off are most of the latency; the adhoc "
                "tenth takes the planner's miss path."
            ),
            scale=1.0,
            fragment_cache_bytes=0,
            round=(
                ("point_lookup", 9), ("selective_scan", 9),
                ("top_n_orders", 9), ("two_way_join", 9), ("semi_join", 9),
                ("kv_profile_join", 9), ("supplier_parts", 9), ("adhoc", 7),
            ),
            c1_rounds=84,
            c2_rounds=84,
        ),
        WorkloadSpec(
            name="analytic",
            why=(
                "Mediator-side join, aggregate and page conversion dominate "
                "and planning is under 3 %; export_scan makes result "
                "encoding heavy."
            ),
            scale=4.0,
            fragment_cache_bytes=0,
            round=(
                ("three_way_join_agg", 1), ("star_revenue", 1),
                ("segment_status_rollup", 1), ("export_scan", 1),
                ("supplier_region_revenue", 1), ("distinct_buyers", 1),
            ),
            c1_rounds=72,
            c2_rounds=56,
        ),
        WorkloadSpec(
            name="fanout",
            why=(
                "Eight sharded sources behind 5 ms of real wait each: the "
                "only workload on the parallel scheduler, where waiting and "
                "message count, not CPU, set latency."
            ),
            scale=8.0,
            fragment_cache_bytes=0,
            round=(
                ("shard_range", 1), ("fanout_filter", 1),
                ("fanout_rollup", 1), ("fanout_topn", 1),
                ("cust_history", 1), ("cust_point_join", 1),
            ),
            c1_rounds=80,
            c2_rounds=124,
        ),
        WorkloadSpec(
            name="repeat_churn",
            why=(
                "Dashboard tiles repeat over a fragment working set larger "
                "than the cache while catalog notifies invalidate it: "
                "writes beside reads."
            ),
            scale=2.0,
            fragment_cache_bytes=300_000,
            # Zipf(0.8) over the four tile shapes, as whole counts per 100.
            round=(
                ("tile_orders_range", 43), ("tile_status_rollup", 25),
                ("tile_segment_join", 18), ("tile_category_revenue", 14),
            ),
            c1_rounds=44,
            c2_rounds=56,
        ),
    )
}

ALL_SHAPES: List[str] = [
    shape for workload in WORKLOADS.values() for shape in workload.shapes
]


def phase_rounds(workload: WorkloadSpec, seconds: float, smoke: bool) -> Tuple[int, int]:
    """Rounds in (c1, c2) for a run of ``seconds``: whole windows of
    rounds, never fewer than one round per window. ``smoke`` runs a
    twentieth of the ops through the same stages."""
    factor = seconds / RUN_SECONDS
    if smoke:
        factor /= 20.0

    def scaled(rounds: int) -> int:
        per_window = max(int(round(rounds * factor / WINDOWS)), 1)
        return per_window * WINDOWS

    return scaled(workload.c1_rounds), scaled(workload.c2_rounds)
