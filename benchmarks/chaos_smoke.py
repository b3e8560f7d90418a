"""CI chaos smoke: resilience invariants on a three-source federation.

Six scripted scenarios, each a hard gate:

* **zero-overhead** — an armed-but-empty fault plan must leave rows and
  simulated-network accounting bit-identical to the fault-free baseline
  (and is timed, so the injector's cost when idle stays visible);
* **dead source** — with one of three sources down, ``fail`` mode must
  raise a typed, attributed error and ``partial`` mode must answer with
  ``complete=False`` naming exactly that source;
* **flapping recovery** — a source failing every call until
  ``recover_after`` heals must fail queries first and then recover, with
  the injector's counters agreeing;
* **deadline abort** — a hung source under a 50 ms deadline must raise
  ``QueryTimeoutError`` promptly instead of hanging the query;
* **bind-join retry** — a forced bind join whose bound source refuses its
  first connection must return the fault-free rows with exactly one retry,
  identically at ``max_parallel_fragments`` 1 (the caller's thread) and 4
  (scheduler workers).

The scenario table is written to ``benchmarks/results/chaos_smoke.txt``.
Run directly::

    python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (  # noqa: E402
    FaultPlan,
    FaultSpec,
    GlobalInformationSystem,
    MemorySource,
    PlannerOptions,
    QueryTimeoutError,
    SourceError,
)
from repro.catalog.schema import schema_from_pairs  # noqa: E402

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "chaos_smoke.txt"
)

SOURCES = ("alpha", "beta", "gamma")
ROWS_EACH = 500
SCHEMA = schema_from_pairs("t", [("a", "INT"), ("src", "TEXT")])
SQL = (
    "SELECT a, src FROM t_alpha UNION ALL "
    "SELECT a, src FROM t_beta UNION ALL "
    "SELECT a, src FROM t_gamma"
)
BIND_SQL = (
    "SELECT x.a, y.src FROM t_alpha x JOIN t_beta y ON x.a = y.a "
    "WHERE x.a < 100"
)


class SlowSource(MemorySource):
    """Answers, but only after a real-time stall (a hung WAN peer)."""

    def __init__(self, name, stall_s):
        super().__init__(name)
        self.stall_s = stall_s

    def execute(self, fragment):
        time.sleep(self.stall_s)
        yield from super().execute(fragment)


def build(slow=None, retries=0, faults=None):
    gis = GlobalInformationSystem(fragment_retries=retries, faults=faults)
    for name in SOURCES:
        if slow is not None and name == slow:
            source = SlowSource(name, stall_s=2.0)
        else:
            source = MemorySource(name, page_rows=64)
        source.add_table(
            f"t_{name}", SCHEMA, [(i, name) for i in range(ROWS_EACH)]
        )
        gis.register_source(name, source)
        gis.register_table(f"t_{name}", source=name)
    return gis


def timed(action):
    started = time.perf_counter()
    value = action()
    return value, (time.perf_counter() - started) * 1000.0


def scenario_zero_overhead(lines, failures):
    gis = build()
    baseline, base_ms = timed(lambda: gis.query(SQL))
    armed, armed_ms = timed(
        lambda: gis.query(SQL, PlannerOptions(faults=FaultPlan()))
    )
    identical = (
        armed.rows == baseline.rows
        and armed.metrics.network.messages == baseline.metrics.network.messages
        and armed.metrics.network.bytes_shipped
        == baseline.metrics.network.bytes_shipped
        and armed.metrics.simulated_ms == baseline.metrics.simulated_ms
    )
    lines.append(
        f"zero-overhead:   baseline {base_ms:.1f} ms, armed {armed_ms:.1f} ms, "
        f"accounting {'identical' if identical else 'DIFFERS'}"
    )
    if not identical:
        failures.append("armed-but-empty fault plan changed rows or accounting")


def scenario_dead_source(lines, failures):
    plan = FaultPlan.of(beta=FaultSpec(fail_connect=10_000))
    gis = build(retries=1, faults=plan)
    try:
        gis.query(SQL)
    except SourceError as exc:
        if exc.source_name != "beta":
            failures.append(f"dead-source error blamed {exc.source_name!r}")
        lines.append(f"dead source:     fail mode -> {type(exc).__name__}"
                     f" on '{exc.source_name}'")
    else:
        failures.append("dead source did not fail the query in 'fail' mode")
        return
    result = gis.query(SQL, PlannerOptions(on_source_failure="partial"))
    expected = ROWS_EACH * (len(SOURCES) - 1)
    honest = (
        not result.complete
        and list(result.excluded_sources) == ["beta"]
        and len(result.rows) == expected
    )
    lines.append(
        f"                 partial mode -> complete={result.complete}, "
        f"excluded={sorted(result.excluded_sources)}, "
        f"{len(result.rows)}/{ROWS_EACH * len(SOURCES)} rows"
    )
    if not honest:
        failures.append("partial mode did not degrade honestly")


def scenario_flapping_recovery(lines, failures):
    plan = FaultPlan.of(gamma=FaultSpec(fail_every=1, recover_after=2))
    gis = build(faults=plan)
    failed = 0
    for _ in range(2):
        try:
            gis.query(SQL)
        except SourceError:
            failed += 1
    try:
        result = gis.query(SQL)
    except SourceError:
        failures.append("flapping source did not recover after K failures")
        return
    snap = gis.fault_injector.snapshot()["gamma"]
    lines.append(
        f"flapping:        {failed} failed queries, then recovered "
        f"({len(result.rows)} rows; injector saw "
        f"{snap.failures} failures / {snap.calls} calls)"
    )
    if failed != 2 or snap.failures != 2:
        failures.append("flapping schedule did not match recover_after=2")


def scenario_deadline_abort(lines, failures):
    gis = build(slow="beta")
    options = PlannerOptions(deadline_ms=50.0, max_parallel_fragments=4)
    try:
        _, elapsed_ms = timed(lambda: gis.query(SQL, options))
    except QueryTimeoutError as exc:
        lines.append(
            f"deadline:        aborted with {type(exc).__name__} "
            f"(budget {exc.budget_ms:.0f} ms, elapsed {exc.elapsed_ms:.0f} ms, "
            f"waiting on {exc.source_name!r})"
        )
        if exc.elapsed_ms > 1_500.0:
            failures.append("deadline abort was not prompt")
        return
    failures.append(
        f"hung source did not trip the deadline (finished in {elapsed_ms:.0f} ms)"
    )


def scenario_bind_join_retry(lines, failures):
    expected = build().query(BIND_SQL, PlannerOptions(semijoin="force")).rows
    plan = FaultPlan.of(beta=FaultSpec(fail_connect=1))
    outcomes = {}
    for parallel in (1, 4):
        options = PlannerOptions(
            semijoin="force", faults=plan, max_parallel_fragments=parallel
        )
        try:
            result = build(retries=1).query(BIND_SQL, options)
        except SourceError as exc:
            outcomes[parallel] = f"{type(exc).__name__} on '{exc.source_name}'"
            failures.append(f"bind join failed at parallel={parallel}: {exc}")
            continue
        retries = result.metrics.network.fragment_retries
        outcomes[parallel] = f"{len(result.rows)} rows, {retries} retry"
        if result.rows != expected or retries != 1:
            failures.append(
                f"bind join at parallel={parallel} returned "
                f"{len(result.rows)}/{len(expected)} rows with {retries} retries"
            )
    lines.append(
        f"bind-join retry: sequential {outcomes[1]}; parallel(4) {outcomes[4]}"
    )


RANGE_SQL = "SELECT a, src FROM t_ranges WHERE a BETWEEN 600 AND 649"


def build_ranges():
    """The three sources as range shards of one analyzed UNION ALL view:
    source ``i`` holds ``a`` in ``[500 i, 500 i + 500)``."""
    gis = GlobalInformationSystem()
    for index, name in enumerate(SOURCES):
        source = MemorySource(name, page_rows=64)
        low = index * ROWS_EACH
        source.add_table(
            f"r_{name}", SCHEMA, [(i, name) for i in range(low, low + ROWS_EACH)]
        )
        gis.register_source(name, source)
        gis.register_table(f"r_{name}", source=name)
    gis.create_view(
        "t_ranges",
        " UNION ALL ".join(f"SELECT a, src FROM r_{name}" for name in SOURCES),
    )
    gis.analyze()
    return gis


def scenario_pruned_dead_shard(lines, failures):
    expected = [(i, "beta") for i in range(600, 650)]
    plan = FaultPlan.of(alpha=FaultSpec(fail_connect=10_000, permanent=True))
    outcomes = {}
    for parallel in (1, 4):
        options = PlannerOptions(faults=plan, max_parallel_fragments=parallel)
        try:
            result = build_ranges().query(RANGE_SQL, options)
        except SourceError as exc:
            outcomes[parallel] = f"{type(exc).__name__} on '{exc.source_name}'"
            failures.append(f"pruned dead shard failed at parallel={parallel}: {exc}")
            continue
        outcomes[parallel] = (
            f"{len(result.rows)} rows, complete={result.complete}"
        )
        if sorted(result.rows) != expected or not result.complete:
            failures.append(
                f"pruned dead shard at parallel={parallel} returned "
                f"{len(result.rows)}/{len(expected)} rows, "
                f"complete={result.complete}"
            )
    lines.append(
        f"pruned shard:    sequential {outcomes[1]}; parallel(4) {outcomes[4]}"
    )


def main() -> int:
    lines = ["== chaos smoke: scripted faults on a 3-source federation =="]
    failures = []
    scenario_zero_overhead(lines, failures)
    scenario_dead_source(lines, failures)
    scenario_flapping_recovery(lines, failures)
    scenario_deadline_abort(lines, failures)
    scenario_bind_join_retry(lines, failures)
    scenario_pruned_dead_shard(lines, failures)
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
