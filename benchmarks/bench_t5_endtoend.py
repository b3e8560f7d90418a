"""T5 — end-to-end federated workload: optimized vs naive mediator (Table 5).

Eight analytics queries spanning all six sources of the TPC-H-lite
federation, each run through the fully optimized mediator and through the
naive baseline (no rewrites, canonical join order, ship-everything, no
semijoins). Reported per query: rows shipped and simulated network time
for both, plus the speedup. Expected shape: the optimized mediator wins on
every query, with the largest factors on selective single-source queries
and key-lookup joins.
"""

import math

import pytest

from repro import NAIVE_OPTIONS, PlannerOptions
from repro.workloads import build_federation

from .common import emit, format_row

from repro.workloads import WORKLOAD_QUERIES

QUERIES = [
    (f"Q{i+1} {name.replace('_', ' ')}", sql)
    for i, (name, sql) in enumerate(WORKLOAD_QUERIES)
]

WIDTHS = (22, 10, 10, 11, 11, 9)


@pytest.fixture(scope="module")
def federation():
    # Big enough that payload bytes dominate per-message latency.
    return build_federation(scale=8.0, seed=42)


def assert_same_rows(actual, expected, name):
    """Equal row multisets; FLOAT values to a relative 1e-9, because a
    partial SUM pushed to a source adds in another order."""
    def key(row):
        return repr(tuple(round(v, 6) if isinstance(v, float) else v for v in row))

    assert len(actual) == len(expected), name
    for got, want in zip(sorted(actual, key=key), sorted(expected, key=key)):
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            if isinstance(a, float) or isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-9), (name, got, want)
            else:
                assert a == b, (name, got, want)


def run(gis, sql, options):
    gis.network.reset()
    return gis.query(sql, options)


def test_t5_endtoend_workload(federation, benchmark):
    gis = federation.gis
    smart_options = PlannerOptions()
    lines = [
        format_row(
            ("query", "opt rows", "nv rows", "opt ms", "nv ms", "speedup"),
            WIDTHS,
        ),
        "-" * 84,
    ]
    speedups = []
    for name, sql in QUERIES:
        smart = run(gis, sql, smart_options)
        naive = run(gis, sql, NAIVE_OPTIONS)
        assert_same_rows(smart.rows, naive.rows, name)
        speedup = naive.metrics.simulated_ms / max(smart.metrics.simulated_ms, 1e-9)
        speedups.append(speedup)
        lines.append(
            format_row(
                (
                    name,
                    smart.metrics.rows_shipped,
                    naive.metrics.rows_shipped,
                    smart.metrics.simulated_ms,
                    naive.metrics.simulated_ms,
                    f"{speedup:.1f}x",
                ),
                WIDTHS,
            )
        )
    geo_mean = 1.0
    for s in speedups:
        geo_mean *= s
    geo_mean **= 1.0 / len(speedups)
    lines.append("-" * 84)
    lines.append(f"geometric-mean speedup: {geo_mean:.2f}x")
    emit("t5_endtoend", "T5: end-to-end workload, optimized vs naive mediator", lines)

    # Shape: optimized never loses, wins overall, and wins big somewhere.
    assert all(s >= 0.95 for s in speedups)
    assert geo_mean > 2.0
    assert max(speedups) > 5.0

    benchmark(lambda: run(gis, QUERIES[3][1], smart_options))
