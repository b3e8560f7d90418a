"""Chaos fuzzing: scripted faults may degrade or fail a query — never lie.

Every scenario drives the same three-source federation through a seeded
:class:`FaultPlan` and asserts the resilience invariant, over a three-way
``UNION ALL`` or (on odd seeds of the sweep) a forced bind join. The
outcome must be one of exactly three things:

(a) a complete answer bit-identical to the fault-free rows,
(b) an honestly-flagged partial result whose ``excluded_sources`` name
    only fault-injected sources and whose surviving sources are complete,
(c) a clean typed error attributed to a faulted source.

Wrong rows and hangs are never acceptable. Scenarios sweep sequential and
parallel execution, retry budgets, and both ``on_source_failure`` modes;
the seeded sweep covers 216 deterministic scenarios and hypothesis adds a
structured search on top.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    FaultPlan,
    FaultSpec,
    GISError,
    GlobalInformationSystem,
    MemorySource,
    PlannerOptions,
    SourceError,
)
from repro.catalog.schema import schema_from_pairs

SOURCES = ("alpha", "beta", "gamma")
ROWS_EACH = 30
PAGE_ROWS = 8  # several pages per scan, so mid-stream faults bite
SCHEMA = schema_from_pairs("t", [("a", "INT"), ("src", "TEXT")])
SQL = (
    "SELECT a, src FROM t_alpha UNION ALL "
    "SELECT a, src FROM t_beta UNION ALL "
    "SELECT a, src FROM t_gamma"
)

EXPECTED = {name: [(i, name) for i in range(ROWS_EACH)] for name in SOURCES}
ALL_ROWS = Counter(row for rows in EXPECTED.values() for row in rows)
#: Forced bind join: alpha's 12 filtered keys go to beta as one key batch,
#: whose 12 rows come back in two pages, so mid-stream faults bite too.
BIND_SQL = (
    "SELECT x.a, y.src FROM t_alpha x JOIN t_beta y ON x.a = y.a "
    "WHERE x.a < 12"
)
BIND_ROWS = Counter((i, "beta") for i in range(12))


def build_federation(retries=0):
    gis = GlobalInformationSystem(fragment_retries=retries)
    for name in SOURCES:
        source = MemorySource(name, page_rows=PAGE_ROWS)
        source.add_table(f"t_{name}", SCHEMA, EXPECTED[name])
        gis.register_source(name, source)
        gis.register_table(f"t_{name}", source=name)
    return gis


def random_plan(rng, seed):
    """A FaultPlan drawn from ``rng`` (independent of the plan's own seed)."""
    specs = {}
    for name in SOURCES:
        if rng.random() < 0.35:
            continue  # healthy source
        kind = rng.choice(("connect", "midstream", "flap", "rate", "latency"))
        if kind == "connect":
            spec = FaultSpec(
                fail_connect=rng.randint(1, 4),
                recover_after=rng.choice((None, 1, 2)),
                permanent=rng.random() < 0.25,
            )
        elif kind == "midstream":
            spec = FaultSpec(
                fail_after_pages=rng.randint(0, 3),
                recover_after=rng.choice((None, 1, 2)),
            )
        elif kind == "flap":
            spec = FaultSpec(
                fail_every=rng.randint(1, 3),
                fail_after_pages=rng.choice((None, 1)),
                recover_after=rng.choice((None, 1, 2, 3)),
            )
        elif kind == "rate":
            spec = FaultSpec(
                failure_rate=rng.choice((0.2, 0.5, 0.9)),
                recover_after=rng.choice((None, 2)),
                permanent=rng.random() < 0.2,
            )
        else:
            spec = FaultSpec(latency_ms=rng.choice((10.0, 100.0)))
        specs[name] = spec
    return FaultPlan.of(seed=seed, **specs)


def check_invariant(plan, mode, retries, parallel, bind=False):
    """Run one scenario and enforce the tri-outcome invariant; ``bind``
    runs the forced bind join instead of the union."""
    gis = build_federation(retries=retries)
    options = PlannerOptions(
        faults=plan, on_source_failure=mode, max_parallel_fragments=parallel,
        semijoin="force" if bind else "auto",
    )
    sql, expected = (BIND_SQL, BIND_ROWS) if bind else (SQL, ALL_ROWS)
    faulted = set(plan.faulted_sources)
    try:
        result = gis.query(sql, options)
    except GISError as exc:
        # (c) clean, typed, attributed failure — only a faulted source may
        # sink the query, and only outside graceful degradation.
        assert isinstance(exc, SourceError), exc
        assert exc.source_name in faulted
        assert str(exc)
        return "error"
    if result.complete:
        # (a) the exact fault-free answer.
        assert result.excluded_sources == {}
        assert Counter(result.rows) == expected
        return "ok"
    # (b) honest partial: only faulted sources excluded, each with a
    # reason, survivors complete, nothing fabricated.
    excluded = result.excluded_sources
    assert mode == "partial"
    assert excluded and set(excluded) <= faulted
    assert all(reason for reason in excluded.values())
    got = Counter(result.rows)
    assert not got - expected, "fabricated rows"
    if bind:
        return "partial"  # every join row needs both sides
    for name in SOURCES:
        per_source = Counter(row for row in result.rows if row[1] == name)
        if name not in excluded:
            assert per_source == Counter(EXPECTED[name])
    return "partial"


def run_scenario(plan, mode, retries, parallel):
    """One chaos run reduced to a comparable outcome tuple."""
    gis = build_federation(retries=retries)
    options = PlannerOptions(
        faults=plan, on_source_failure=mode, max_parallel_fragments=parallel
    )
    try:
        result = gis.query(SQL, options)
    except GISError as exc:
        return ("error", type(exc).__name__, str(exc))
    kind = "ok" if result.complete else "partial"
    return (kind, sorted(result.rows), sorted(result.excluded_sources.items()))


def scenario_knobs(rng):
    mode = rng.choice(("fail", "partial"))
    retries = rng.choice((0, 1, 2))
    parallel = rng.choice((1, 4))
    return mode, retries, parallel


SEEDS_PER_CHUNK = 27
N_CHUNKS = 8  # 216 seeded scenarios — above the 200-scenario bar


class TestSeededChaosSweep:
    @pytest.mark.parametrize("chunk", range(N_CHUNKS))
    def test_invariant_holds_across_seeds(self, chunk):
        start = chunk * SEEDS_PER_CHUNK
        for seed in range(start, start + SEEDS_PER_CHUNK):
            rng = random.Random(seed)
            plan = random_plan(rng, seed)
            mode, retries, parallel = scenario_knobs(rng)
            check_invariant(plan, mode, retries, parallel, bind=seed % 2 == 1)

    def test_sweep_exercises_every_outcome(self):
        kinds = set()
        for seed in range(40):
            rng = random.Random(seed)
            plan = random_plan(rng, seed)
            retries = rng.choice((0, 1))
            kinds.add(check_invariant(plan, "partial", retries, 1))
            kinds.add(check_invariant(plan, "fail", 0, 1))
        assert {"ok", "partial", "error"} <= kinds

    @pytest.mark.parametrize("seed", [3, 11, 29, 47, 101])
    def test_scenarios_replay_deterministically(self, seed):
        rng = random.Random(seed)
        plan = random_plan(rng, seed)
        mode, retries, parallel = scenario_knobs(rng)
        first = run_scenario(plan, mode, retries, parallel)
        second = run_scenario(plan, mode, retries, parallel)
        assert first == second


# ---------------------------------------------------------------------------
# chaos with hedging: stragglers + failures under tail tolerance
# ---------------------------------------------------------------------------


def build_replicated_federation(retries=0):
    """The three-source federation, plus each table replicated on the
    next source round-robin — so hedges and fallbacks have a target."""
    gis = GlobalInformationSystem(fragment_retries=retries)
    adapters = {}
    for name in SOURCES:
        source = MemorySource(name, page_rows=PAGE_ROWS)
        source.add_table(f"t_{name}", SCHEMA, EXPECTED[name])
        adapters[name] = source
    for index, name in enumerate(SOURCES):
        host = SOURCES[(index + 1) % len(SOURCES)]
        adapters[host].add_table(f"t_{name}_copy", SCHEMA, EXPECTED[name])
    for name in SOURCES:
        gis.register_source(name, adapters[name])
    for name in SOURCES:
        gis.register_table(f"t_{name}", source=name)
    for index, name in enumerate(SOURCES):
        host = SOURCES[(index + 1) % len(SOURCES)]
        gis.register_replica(
            f"t_{name}", source=host, remote_table=f"t_{name}_copy"
        )
    return gis


def random_tail_plan(rng, seed):
    """A FaultPlan mixing stragglers (real stalls, small so sweeps stay
    fast) with the classic failure modes."""
    specs = {}
    for name in SOURCES:
        if rng.random() < 0.3:
            continue
        straggle = rng.random() < 0.6
        fail = rng.choice((None, "connect", "midstream", "rate"))
        kwargs = {}
        if straggle:
            kwargs.update(
                straggle_ms=rng.choice((5.0, 20.0)),
                straggle_jitter_ms=rng.choice((0.0, 10.0)),
                straggle_after_pages=rng.randint(0, 2),
                straggle_rate=rng.choice((0.5, 1.0)),
            )
        if fail == "connect":
            kwargs.update(
                fail_connect=rng.randint(1, 3),
                recover_after=rng.choice((None, 1, 2)),
            )
        elif fail == "midstream":
            kwargs.update(
                fail_after_pages=rng.randint(0, 2),
                recover_after=rng.choice((None, 1, 2)),
            )
        elif fail == "rate":
            kwargs.update(
                failure_rate=rng.choice((0.3, 0.7)),
                recover_after=rng.choice((None, 2)),
            )
        if kwargs:
            specs[name] = FaultSpec(**kwargs)
    return FaultPlan.of(seed=seed, **specs)


def check_hedged_invariant(plan, mode, retries, parallel):
    """Tri-outcome invariant with hedging + replicas in play.

    Replicas serve bit-identical copies, so a complete answer must still
    equal the fault-free rows exactly, no matter which copy each page
    came from. With fallback targets available, exclusions may be
    attributed to whichever faulted source actually sank the table's
    serving chain — but a clean federation subset never loses rows and
    nothing is ever fabricated.
    """
    gis = build_replicated_federation(retries=retries)
    options = PlannerOptions(
        faults=plan,
        on_source_failure=mode,
        max_parallel_fragments=parallel,
        replicas="primary",
        hedge_fragments=True,
        hedge_delay_ms=5.0,
        adaptive_timeout=True,
        # Far above any injected stall: a straggle-only source must never
        # trip a no-progress timeout (it is slow, not failing).
        timeout_floor_ms=2000.0,
        health_routing=True,
    )
    faulted = set(plan.faulted_sources)
    try:
        result = gis.query(SQL, options)
    except GISError as exc:
        assert isinstance(exc, SourceError), exc
        assert exc.source_name in faulted
        assert str(exc)
        return "error"
    if result.complete:
        assert result.excluded_sources == {}
        assert Counter(result.rows) == ALL_ROWS
        return "ok"
    excluded = result.excluded_sources
    assert mode == "partial"
    assert excluded and set(excluded) <= faulted
    assert all(reason for reason in excluded.values())
    got = Counter(result.rows)
    assert not got - ALL_ROWS, "fabricated rows"
    return "partial"


class TestChaosWithHedging:
    @pytest.mark.parametrize("chunk", range(4))
    def test_invariant_holds_with_hedging_armed(self, chunk):
        for seed in range(chunk * 8, chunk * 8 + 8):
            rng = random.Random(1000 + seed)
            plan = random_tail_plan(rng, seed)
            mode, retries, parallel = scenario_knobs(rng)
            check_hedged_invariant(plan, mode, retries, parallel)

    def test_pure_stragglers_never_degrade_the_answer(self):
        """Sources that are only slow (never failing) must yield the
        complete, exact answer — hedged or not — and hedge accounting
        must stay coherent (wins + cancellations never exceed launches)."""
        plan = FaultPlan.of(
            seed=4,
            alpha=FaultSpec(straggle_ms=40.0),
            beta=FaultSpec(straggle_ms=20.0, straggle_after_pages=1),
        )
        gis = build_replicated_federation()
        result = gis.query(
            SQL,
            PlannerOptions(
                faults=plan, replicas="primary", hedge_fragments=True,
                hedge_delay_ms=5.0, max_parallel_fragments=4,
            ),
        )
        assert Counter(result.rows) == ALL_ROWS
        net = result.metrics.network
        assert net.hedges_launched >= 1
        assert net.hedges_won <= net.hedges_launched
        assert net.hedges_cancelled <= net.hedges_launched

    def test_hedged_chaos_replays_deterministic_rows(self):
        """Same plan, same knobs: the *rows* must replay identically even
        though hedge race outcomes (wall-clock) may differ run to run."""
        rng = random.Random(77)
        plan = random_tail_plan(rng, 77)
        results = []
        for _ in range(2):
            gis = build_replicated_federation(retries=1)
            options = PlannerOptions(
                faults=plan, on_source_failure="partial",
                replicas="primary", hedge_fragments=True, hedge_delay_ms=5.0,
            )
            try:
                result = gis.query(SQL, options)
                results.append(("ok", sorted(result.rows)))
            except GISError as exc:
                results.append(("error", type(exc).__name__))
        kinds = {kind for kind, _ in results}
        # Hedging may rescue a run that another run failed, but whenever
        # both runs produce rows they are identical.
        if kinds == {"ok"}:
            assert results[0] == results[1]


FAULT_SPECS = st.builds(
    FaultSpec,
    fail_connect=st.integers(0, 3),
    fail_after_pages=st.none() | st.integers(0, 3),
    fail_every=st.integers(0, 2),
    failure_rate=st.sampled_from([0.0, 0.3, 0.9]),
    recover_after=st.none() | st.integers(1, 3),
    latency_ms=st.sampled_from([0.0, 25.0]),
    permanent=st.booleans(),
)


class TestHypothesisChaos:
    @given(
        specs=st.dictionaries(
            st.sampled_from(SOURCES), FAULT_SPECS, max_size=3
        ),
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(["fail", "partial"]),
        retries=st.integers(0, 2),
        parallel=st.sampled_from([1, 4]),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_invariant_holds(self, specs, seed, mode, retries, parallel):
        plan = FaultPlan.of(seed=seed, **specs)
        check_invariant(plan, mode, retries, parallel)
