"""The query mix: 24 named shapes and the seeded op sequences built from
them.

A shape is a SQL template plus a pool of literal tuples drawn from the
seed; an op is ``(shape, sql)``. Sequences are whole shuffled rounds of
``WorkloadSpec.round``, so op counts and shape counts repeat exactly for
every seed and only literals and order vary. Every ``ORDER BY ... LIMIT``
carries a unique tie-break column, so each answer is a set.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Sized, Tuple

from . import spec

STATUSES = ("OPEN", "SHIPPED", "DELIVERED", "RETURNED")


class Op(NamedTuple):
    shape: str
    sql: str


class Sizes(NamedTuple):
    """Row counts of the generated tables whose keys literals are drawn
    from (ids run 1..count)."""

    customers: int
    orders: int
    lineitems: int


#: shape -> (literal-pool size, text builder taking the rng and sizes).
Builder = Callable[[random.Random, Sizes], str]


def _adhoc(rng: random.Random, sizes: Sizes) -> str:
    """A generated single-table query: random column subset, one or two
    comparison predicates, optionally ORDER BY ... LIMIT on the key."""
    table, key, columns, numeric = rng.choice(
        (
            ("orders", "o_id", ("o_cust_id", "o_date", "o_total", "o_status"),
             (("o_id", sizes.orders), ("o_cust_id", sizes.customers),
              ("o_total", 5000))),
            ("customers", "c_id",
             ("c_name", "c_nation_id", "c_segment", "c_since", "c_balance"),
             (("c_id", sizes.customers), ("c_nation_id", 25),
              ("c_balance", 9000))),
            ("lineitems", "l_id",
             ("l_order_id", "l_part_id", "l_qty", "l_price", "l_discount"),
             (("l_id", sizes.lineitems), ("l_order_id", sizes.orders),
              ("l_price", 900))),
        )
    )
    picked = [key] + sorted(
        rng.sample(columns, rng.randint(1, len(columns))), key=columns.index
    )
    predicates = []
    for column, high in rng.sample(numeric, rng.randint(1, 2)):
        # Keep results small: a narrow band near the top of the domain.
        op = rng.choice((">", ">=", "<", "<="))
        bound = rng.randint(int(high * 0.93), int(high * 0.99))
        if op in ("<", "<="):
            bound = high - bound + 1
        predicates.append(f"{column} {op} {bound}")
    sql = f"SELECT {', '.join(picked)} FROM {table} WHERE {' AND '.join(predicates)}"
    if rng.random() < 0.5:
        direction = rng.choice(("", " DESC"))
        sql += f" ORDER BY {key}{direction} LIMIT {rng.choice((5, 10, 25))}"
    return sql


def _shard_range(rng: random.Random, sizes: Sizes) -> str:
    shard = rng.randrange(spec.FANOUT_SHARDS)
    low = shard * spec.FANOUT_SHARD_ROWS + rng.randint(
        1, spec.FANOUT_SHARD_ROWS - 199
    )
    return (
        "SELECT o_id, o_total FROM orders_all "
        f"WHERE o_id BETWEEN {low} AND {low + 199}"
    )


def _export_scan(rng: random.Random, sizes: Sizes) -> str:
    # 15 of the 50 quantity values: about 3 500 of SF 4's 12 000 lineitems.
    low = rng.randint(1, 36)
    return (
        "SELECT l_id, l_order_id, l_part_id, l_qty, l_price FROM lineitems "
        f"WHERE l_qty BETWEEN {low} AND {low + 14}"
    )


SHAPES: Dict[str, Tuple[int, Builder]] = {
    # -- lookup ------------------------------------------------------------
    "point_lookup": (40, lambda r, s: (
        "SELECT o_id, o_cust_id, o_date, o_total, o_status FROM orders "
        f"WHERE o_id = {r.randint(1, s.orders)}"
    )),
    "selective_scan": (40, lambda r, s: (
        f"SELECT o_id, o_total FROM orders WHERE o_total > {r.randint(4500, 4950)}"
    )),
    "top_n_orders": (12, lambda r, s: (
        "SELECT o_id, o_date, o_total FROM orders "
        f"WHERE o_status = '{r.choice(STATUSES)}' "
        f"ORDER BY o_total DESC, o_id LIMIT {r.choice((5, 10, 20))}"
    )),
    "two_way_join": (40, lambda r, s: (
        "SELECT c.c_name, o.o_id, o.o_total FROM customers c "
        "JOIN orders o ON c.c_id = o.o_cust_id "
        f"WHERE o.o_total > {r.randint(4400, 4900)}"
    )),
    "semi_join": (40, lambda r, s: (
        "SELECT c_id, c_name FROM customers WHERE c_id IN "
        f"(SELECT o_cust_id FROM orders WHERE o_total > {r.randint(4500, 4900)})"
    )),
    "kv_profile_join": (40, lambda r, s: (
        "SELECT c.c_id, c.c_name, p.u_tier FROM customers c "
        "JOIN profiles p ON c.c_id = p.u_cust_id "
        f"WHERE c.c_balance > {r.randint(8000, 8900)}"
    )),
    "supplier_parts": (30, lambda r, s: (
        "SELECT s.s_name, l.l_part_id, l.l_qty FROM suppliers s "
        "JOIN lineitems l ON s.s_id = l.l_supplier_id "
        f"WHERE l.l_price > {r.randint(860, 895)}"
    )),
    "adhoc": (200, _adhoc),
    # -- analytic ----------------------------------------------------------
    "three_way_join_agg": (6, lambda r, s: (
        "SELECT n.n_name, COUNT(*) AS cnt FROM nations n "
        "JOIN customers c ON n.n_id = c.c_nation_id "
        "JOIN orders o ON c.c_id = o.o_cust_id "
        f"WHERE o.o_total > {r.randint(5, 400)} "
        "GROUP BY n.n_name ORDER BY cnt DESC, n.n_name LIMIT 5"
    )),
    "star_revenue": (6, lambda r, s: (
        "SELECT p.p_category, SUM(l.l_price * l.l_qty) AS rev FROM parts p "
        "JOIN lineitems l ON p.p_id = l.l_part_id "
        f"WHERE l.l_qty >= {r.randint(1, 8)} GROUP BY p.p_category"
    )),
    "segment_status_rollup": (6, lambda r, s: (
        "SELECT c.c_segment, o.o_status, COUNT(*) AS cnt, "
        "SUM(o.o_total) AS total, AVG(o.o_total) AS mean FROM customers c "
        "JOIN orders o ON c.c_id = o.o_cust_id "
        f"WHERE o.o_total > {r.randint(5, 400)} "
        "GROUP BY c.c_segment, o.o_status"
    )),
    "export_scan": (6, _export_scan),
    "supplier_region_revenue": (6, lambda r, s: (
        "SELECT r.r_name, SUM(l.l_price * l.l_qty) AS rev FROM regions r "
        "JOIN nations n ON r.r_id = n.n_region_id "
        "JOIN suppliers s ON n.n_id = s.s_nation_id "
        "JOIN lineitems l ON s.s_id = l.l_supplier_id "
        f"WHERE l.l_qty >= {r.randint(1, 8)} GROUP BY r.r_name"
    )),
    "distinct_buyers": (6, lambda r, s: (
        "SELECT DISTINCT o.o_cust_id FROM orders o "
        "JOIN lineitems l ON o.o_id = l.l_order_id "
        f"WHERE l.l_price > {r.randint(20, 200)}"
    )),
    # -- fanout ------------------------------------------------------------
    "shard_range": (16, _shard_range),
    "fanout_filter": (16, lambda r, s: (
        "SELECT o_id, o_cust_id, o_total FROM orders_all "
        f"WHERE o_total > {r.randint(4500, 4900)}"
    )),
    "fanout_rollup": (16, lambda r, s: (
        "SELECT o_status, COUNT(*) AS cnt, SUM(o_total) AS total "
        f"FROM orders_all WHERE o_total > {r.randint(100, 2000)} "
        "GROUP BY o_status"
    )),
    "fanout_topn": (12, lambda r, s: (
        "SELECT o_id, o_total FROM orders_all "
        f"WHERE o_status = '{r.choice(STATUSES)}' "
        f"ORDER BY o_total DESC, o_id LIMIT {r.choice((10, 20, 50))}"
    )),
    "cust_history": (16, lambda r, s: (
        "SELECT o_id, o_date, o_total FROM orders_all "
        f"WHERE o_cust_id = {r.randint(1, 40)}"
    )),
    "cust_point_join": (16, lambda r, s: (
        "SELECT c.c_name, o.o_id, o.o_total FROM customers c "
        "JOIN orders_all o ON c.c_id = o.o_cust_id "
        f"WHERE c.c_id = {r.randint(1, 40)}"
    )),
}

#: repeat_churn tiles take their literal from a *step* (0 = hottest), not
#: from a random pool. A step is a window in one of ``CHURN_GROUPS``
#: side-by-side groups, narrowed ``step // CHURN_GROUPS`` times: the eight
#: hottest steps are the groups' widest windows, so repeats of a step hit
#: the fragment cache exactly and a narrower step is subsumed by its
#: group's cached wider one.
CHURN_STEPS = 40
CHURN_GROUPS = 8


def _total_window(step: int) -> str:
    """An ``o_total`` band; group edges sit at quantiles of the
    generator's quadratic skew so every group holds about as many rows."""
    group, depth = step % CHURN_GROUPS, step // CHURN_GROUPS
    low = int(5000 * (group / CHURN_GROUPS) ** 2)
    high = int(5000 * ((group + 1) / CHURN_GROUPS) ** 2)
    shrink = depth * (high - low) // 12
    return f"o_total >= {low + shrink} AND o_total < {high - shrink}"


def _qty_window(step: int) -> str:
    group, depth = step % CHURN_GROUPS, step // CHURN_GROUPS
    low = 1 + 6 * group
    return f"l_qty >= {low + depth} AND l_qty < {low + 8}"


TILES: Dict[str, Callable[[int], str]] = {
    "tile_orders_range": lambda step: (
        "SELECT o_id, o_total, o_status FROM orders "
        f"WHERE {_total_window(step)}"
    ),
    "tile_status_rollup": lambda step: (
        "SELECT o_status, COUNT(*) AS cnt, SUM(o_total) AS total FROM orders "
        f"WHERE {_total_window(step)} GROUP BY o_status"
    ),
    "tile_segment_join": lambda step: (
        "SELECT c.c_segment, COUNT(*) AS cnt, SUM(o.o_total) AS total "
        "FROM customers c JOIN orders o ON c.c_id = o.o_cust_id "
        f"WHERE {_total_window(step).replace('o_total', 'o.o_total')} "
        "GROUP BY c.c_segment"
    ),
    "tile_category_revenue": lambda step: (
        "SELECT p.p_category, SUM(l.l_price * l.l_qty) AS rev FROM parts p "
        "JOIN lineitems l ON p.p_id = l.l_part_id "
        f"WHERE {_qty_window(step).replace('l_qty', 'l.l_qty')} "
        "GROUP BY p.p_category"
    ),
}


#: Zipf(1.1) weights of the churn steps; other shapes draw uniformly.
_STEP_WEIGHTS = [1.0 / (rank ** 1.1) for rank in range(1, CHURN_STEPS + 1)]


def quotas(weights: Sequence[float], total: int) -> List[int]:
    """Whole counts summing to ``total`` in proportion to ``weights``
    (largest remainder, earlier index first on ties)."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


class Mix:
    """One workload's literal pools and op sequences for one seed."""

    def __init__(
        self, workload: spec.WorkloadSpec, seed: int, rows: Mapping[str, Sized]
    ) -> None:
        """``rows`` are the generated tables (only their lengths are read)."""
        self.workload = workload
        self.seed = seed
        sizes = Sizes(*(len(rows[table]) for table in Sizes._fields))
        self.pools: Dict[str, List[str]] = {}
        for shape in workload.shapes:
            if shape in TILES:
                self.pools[shape] = [
                    TILES[shape](step) for step in range(CHURN_STEPS)
                ]
                continue
            size, build = SHAPES[shape]
            rng = random.Random(f"{workload.name}:{seed}:pool:{shape}")
            texts: List[str] = []
            seen = set()
            # Distinct texts, in draw order; domains are far larger than
            # the pools, the attempt cap only guards a mis-sized pool.
            for _attempt in range(size * 50):
                text = build(rng, sizes)
                if text not in seen:
                    seen.add(text)
                    texts.append(text)
                    if len(texts) == size:
                        break
            self.pools[shape] = texts

    def distinct_ops(self) -> List[Op]:
        """Every SQL text any sequence can contain, once."""
        return [
            Op(shape, sql)
            for shape in self.workload.shapes
            for sql in self.pools[shape]
        ]

    def sequence(self, phase: str, rounds: int) -> List[Op]:
        """``rounds`` shuffled rounds for one phase (``warm``/``c1``/``c2``).

        Literals are stratified like shapes: over the phase each shape
        uses its pool's texts in fixed proportions (uniform, or Zipf over
        the churn steps), so seeds differ in order, not in how often the
        hot literals come up."""
        rng = random.Random(f"{self.workload.name}:{self.seed}:{phase}")
        picks: Dict[str, List[str]] = {}
        for shape, count in self.workload.round:
            pool = self.pools[shape]
            weights = _STEP_WEIGHTS if shape in TILES else [1.0] * len(pool)
            texts = [
                text
                for text, uses in zip(pool, quotas(weights, rounds * count))
                for _ in range(uses)
            ]
            rng.shuffle(texts)
            picks[shape] = texts
        ops: List[Op] = []
        for _round in range(rounds):
            shapes = [
                shape
                for shape, count in self.workload.round
                for _ in range(count)
            ]
            rng.shuffle(shapes)
            ops.extend(Op(shape, picks[shape].pop()) for shape in shapes)
        return ops


def sequence_hash(ops: Sequence[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.shape.encode())
        digest.update(b"\0")
        digest.update(op.sql.encode())
        digest.update(b"\n")
    return digest.hexdigest()
