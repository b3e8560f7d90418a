"""T2 — cost-based join ordering vs canonical order (Table 2).

Chain and star joins of 3-6 relations, phrased in a deliberately bad
textual order (largest table first). Reports, per query shape and
strategy: rows shipped, total rows flowing through mediator joins, and
simulated network time. Expected shape: DP ≤ greedy ≤ canonical on
intermediate work, with DP and greedy usually tied on these sizes.
"""

import pytest

from repro import PlannerOptions
from repro.workloads import build_federation

from .common import emit, format_row

#: Query shapes with the big tables named FIRST so canonical order suffers.
SHAPES = [
    (
        "chain-3",
        """SELECT COUNT(*) FROM lineitems l
           JOIN orders o ON l.l_order_id = o.o_id
           JOIN customers c ON o.o_cust_id = c.c_id
           WHERE c.c_balance > 8000""",
    ),
    (
        "chain-4",
        """SELECT COUNT(*) FROM lineitems l
           JOIN orders o ON l.l_order_id = o.o_id
           JOIN customers c ON o.o_cust_id = c.c_id
           JOIN nations n ON c.c_nation_id = n.n_id
           WHERE n.n_name = 'FRANCE'""",
    ),
    (
        "star-4",
        """SELECT COUNT(*) FROM lineitems l
           JOIN parts p ON l.l_part_id = p.p_id
           JOIN suppliers s ON l.l_supplier_id = s.s_id
           JOIN orders o ON l.l_order_id = o.o_id
           WHERE p.p_price > 700 AND s.s_rating = 5""",
    ),
    (
        "snowflake-5",
        """SELECT COUNT(*) FROM lineitems l
           JOIN orders o ON l.l_order_id = o.o_id
           JOIN customers c ON o.o_cust_id = c.c_id
           JOIN nations n ON c.c_nation_id = n.n_id
           JOIN regions r ON n.n_region_id = r.r_id
           WHERE r.r_name = 'EUROPE' AND c.c_segment = 'MACHINERY'""",
    ),
]

STRATEGIES = ["dp", "greedy", "canonical"]
WIDTHS = (12, 10, 12, 12, 12)


@pytest.fixture(scope="module")
def federation():
    return build_federation(scale=2.0, seed=42)


def measure(gis, sql, strategy, partial_aggregation=False):
    # Join order is the variable here; eager aggregation (A1) groups
    # lineitems at its source under every order and narrows the difference,
    # so the gates below read the table with it off.
    gis.network.reset()
    result = gis.query(
        sql,
        PlannerOptions(
            join_strategy=strategy, partial_aggregation=partial_aggregation
        ),
    )
    return result


def test_t2_join_ordering_strategies(federation, benchmark):
    gis = federation.gis
    header = [
        format_row(("shape", "strategy", "rows", "net ms", "answer"), WIDTHS),
        "-" * 66,
    ]
    lines = []
    #: (partial_aggregation, shape, strategy) -> simulated ms
    shipped = {}
    for partial_aggregation in (False, True):
        lines += [f"-- partial_aggregation={partial_aggregation} --", *header]
        for shape, sql in SHAPES:
            answers = set()
            for strategy in STRATEGIES:
                result = measure(gis, sql, strategy, partial_aggregation)
                answers.add(result.rows[0][0])
                shipped[(partial_aggregation, shape, strategy)] = (
                    result.metrics.simulated_ms
                )
                lines.append(
                    format_row(
                        (
                            shape,
                            strategy,
                            result.metrics.rows_shipped,
                            result.metrics.simulated_ms,
                            result.rows[0][0],
                        ),
                        WIDTHS,
                    )
                )
            assert len(answers) == 1, f"strategies disagree on {shape}"
    emit("t2_join_order", "T2: join-order strategies (chain/star/snowflake)", lines)

    # Shape: cost-based ordering must never lose to canonical, and must win
    # clearly somewhere.
    wins = 0
    for shape, _ in SHAPES:
        dp = shipped[(False, shape, "dp")]
        canonical = shipped[(False, shape, "canonical")]
        assert dp <= canonical * 1.05
        if dp < canonical * 0.8:
            wins += 1
    assert wins >= 1, "DP should beat canonical clearly on at least one shape"

    benchmark(lambda: measure(gis, SHAPES[3][1], "dp"))
