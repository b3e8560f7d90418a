"""F2 — scale-out over horizontally partitioned sources (Figure 2).

A fixed 2000-row `orders` table is range-partitioned over 1→8 SQLite
sources behind a UNION ALL view; an aggregate query with a pushed filter
runs against each configuration.

Two sections:

* **simulated** — sequential virtual time (sum of per-source transfers — a
  single-threaded mediator) vs parallel virtual time (critical path — what
  a mediator issuing fragments concurrently would see). Deterministic on
  any machine.
* **measured** — *real* wall-clock execution with 50 ms of injected
  per-fragment latency, sequential engine vs the fragment scheduler
  (``max_parallel_fragments=8``). This exercises the actual worker
  threads, bounded queues, and concurrent SQLite access; rows must be
  bit-identical and the 4- and 8-partition configurations must clear a 2×
  speedup.

Expected shape: both parallel series fall near-linearly with partition
count until per-message latency floors them; sequential stays roughly
flat (same bytes, more messages / same sleeps, serialized).
"""

import time

from repro.core.planner import PlannerOptions
from repro.workloads import build_partitioned_orders

from .common import emit, format_row

TOTAL_ROWS = 2000
PARTITIONS = [1, 2, 4, 8]
# A row-returning query: every configuration ships the same filtered rows,
# isolating the transfer-parallelism effect. (A fully pushable aggregate
# would make the 1-source case degenerate — the source computes it alone —
# which is the *pushdown* story, not the scale-out story.)
SQL = "SELECT o_id, o_total FROM orders_all WHERE o_total > 500"
WIDTHS = (10, 12, 14, 14, 10)

#: Injected real latency per fragment fetch in the measured section.
INJECTED_DELAY_S = 0.05

PARALLEL_OPTIONS = PlannerOptions(max_parallel_fragments=8)


class LatencyInjectedAdapter:
    """Delegating wrapper that sleeps once before a fragment's first page,
    modeling a real slow link so wall-clock parallelism is observable.
    The engine fetches through ``execute_pages``, so that is the method
    wrapped."""

    def __init__(self, inner, delay_s=INJECTED_DELAY_S):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, item):
        return getattr(self._inner, item)

    def execute_pages(self, fragment, page_rows):
        time.sleep(self._delay_s)
        yield from self._inner.execute_pages(fragment, page_rows)


def test_f2_scaleout_over_partitions(benchmark):
    lines = [
        "-- simulated virtual clock --",
        format_row(
            ("sources", "rows", "sequential ms", "parallel ms", "speedup"),
            WIDTHS,
        ),
        "-" * 68,
    ]
    series = []
    answers = set()
    for count in PARTITIONS:
        federation = build_partitioned_orders(
            count, TOTAL_ROWS // count, seed=42, latency_ms=20.0,
            bandwidth=200_000.0,
        )
        gis = federation.gis
        gis.network.reset()
        result = gis.query(SQL)
        answers.add(tuple(sorted(result.rows)))
        sequential = gis.network.total.simulated_ms
        parallel = gis.network.parallel_elapsed_ms()
        series.append((count, sequential, parallel))
        lines.append(
            format_row(
                (
                    count,
                    result.metrics.rows_shipped,
                    sequential,
                    parallel,
                    f"{series[0][2] / parallel:.1f}x" if parallel else "-",
                ),
                WIDTHS,
            )
        )

    # -- measured wall clock: the scheduler actually running threads -------
    lines += [
        "",
        f"-- measured wall clock ({INJECTED_DELAY_S * 1000:.0f} ms injected "
        "per-fragment latency, 8 workers) --",
        format_row(
            ("sources", "rows", "sequential ms", "parallel ms", "speedup"),
            WIDTHS,
        ),
        "-" * 68,
    ]
    measured = []
    for count in PARTITIONS:
        federation = build_partitioned_orders(
            count, TOTAL_ROWS // count, seed=42,
            adapter_wrapper=LatencyInjectedAdapter,
        )
        gis = federation.gis
        started = time.perf_counter()
        seq_result = gis.query(SQL)
        seq_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        par_result = gis.query(SQL, PARALLEL_OPTIONS)
        par_ms = (time.perf_counter() - started) * 1000.0
        # The acceptance bar: parallel execution is bit-identical.
        assert par_result.rows == seq_result.rows
        # One fragment per source, fetched one after another: a wrapper
        # the engine bypasses would report CPU noise as a speedup.
        floor_ms = count * INJECTED_DELAY_S * 1000.0
        assert seq_ms >= floor_ms, (
            f"{count} partitions: sequential run took {seq_ms:.0f} ms, under "
            f"the {floor_ms:.0f} ms of injected latency - the delay never ran"
        )
        answers.add(tuple(sorted(par_result.rows)))
        measured.append((count, seq_ms, par_ms))
        lines.append(
            format_row(
                (
                    count,
                    par_result.metrics.rows_shipped,
                    seq_ms,
                    par_ms,
                    f"{seq_ms / par_ms:.1f}x" if par_ms else "-",
                ),
                WIDTHS,
            )
        )
    emit("f2_scaleout", "F2: scale-out over horizontal partitions", lines)

    # All configurations (simulated and measured) compute the same answer.
    assert len(answers) == 1

    # Shape: simulated parallel time decreases monotonically with partitions
    # and the 8-way configuration achieves a real speedup over one source.
    parallel_times = [row[2] for row in series]
    assert all(a >= b for a, b in zip(parallel_times, parallel_times[1:]))
    assert parallel_times[0] / parallel_times[-1] > 2.0

    # Measured: with latency injected, real concurrent execution beats the
    # sequential engine by >2x at 4 and 8 partitions.
    for count, seq_ms, par_ms in measured:
        if count >= 4:
            assert seq_ms / par_ms > 2.0, (
                f"{count} partitions: expected >2x wall-clock speedup, got "
                f"{seq_ms / par_ms:.2f}x ({seq_ms:.0f} ms -> {par_ms:.0f} ms)"
            )

    federation = build_partitioned_orders(4, TOTAL_ROWS // 4, seed=42)
    benchmark(lambda: federation.gis.query(SQL))
