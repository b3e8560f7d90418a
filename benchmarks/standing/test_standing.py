"""Self-tests of the harness (``pytest benchmarks/standing``): the parts a
wrong number could hide in - percentiles, exclusive time, sequence
generation, answer normalisation, boundary installation, verdicts."""

from __future__ import annotations

import datetime
import json
import sys
import threading
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.standing import (  # noqa: E402
    federation, metrics, mix, oracle, report, spec, stats, tracing,
)


# -- statistics ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supports(200, 0.95)
    assert not stats.supports(199, 0.95)
    assert stats.supports(1000, 0.99)
    assert not stats.supports(999, 0.99)
    assert stats.percentile_if_supported(list(range(199)), 0.95) is None
    assert stats.percentile_if_supported(list(range(200)), 0.95) == 189


def test_window_rates_split_by_completion_order():
    # 8 ops completing one per second from t=10: two windows of 4 ops/4 s.
    completions = [18.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
    assert stats.window_rates(completions, 10.0, 2) == [1.0, 1.0]


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- exclusive time --------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_exclusive_time_on_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter(tracing.ROOT)
    clock.now = 1.0
    tracer.enter("sql.parse")
    clock.now = 3.0
    tracer.exit(span=True)
    tracer.enter("core.physical.build")
    clock.now = 4.0
    tracer.enter("core.physical.build")  # recursion
    clock.now = 6.0
    tracer.exit()
    clock.now = 7.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit(span=True)
    totals = tracer.snapshot()["totals"]
    # calls, inclusive, self, directly under the query call
    assert totals[tracing.ROOT] == [1, 10.0, 4.0, 0.0]
    assert totals["sql.parse"] == [1, 2.0, 2.0, 2.0]
    # The recursive boundary counts inclusive time once (the outer 4 s),
    # self time for both calls, and only the outer call sits under ROOT.
    assert totals["core.physical.build"] == [2, 4.0, 4.0, 4.0]
    assert [(s[1], s[2], s[3], s[4]) for s in tracer.spans] == [
        ("sql.parse", 1.0, 3.0, tracing.ROOT),
        (tracing.ROOT, 0.0, 10.0, None),
    ]
    assert tracer.spans[0][0] == 0  # first op


def test_exclusive_time_across_threads():
    """A worker thread's calls have their own stack: they are not children
    of the query thread's open call and do not shrink its self time."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter(tracing.ROOT)

    def worker() -> None:
        tracer.enter("sources.sqlite.fetch")
        clock.now = 5.0
        tracer.exit()

    thread = threading.Thread(target=worker, name="gis-fragment-0")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 6.0
    tracer.exit()
    totals = tracer.snapshot()["totals"]
    assert totals[tracing.ROOT] == [1, 6.0, 6.0, 0.0]
    assert totals["sources.sqlite.fetch"] == [1, 5.0, 5.0, 0.0]


def test_iterator_boundary_times_only_next():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def pages():
        clock.now += 2.0  # producing a page costs 2 s
        yield [1, 2, 3]
        clock.now += 2.0
        yield [4]

    boundary = tracing.Boundary("sources.sqlite.fetch", "m:f", "iter", True)
    traced = tracer.wrap_iter(pages, boundary)
    for _page in traced():
        clock.now += 10.0  # the consumer's time between pages
    snap = tracer.snapshot()
    assert snap["totals"]["sources.sqlite.fetch"][2] == 4.0
    assert snap["counters"]["sources.rows"] == 4
    assert snap["counters"]["sources.sqlite.fetch.iterators"] == 1
    assert [s[1] for s in tracer.spans] == ["sources.sqlite.fetch.stream"]


def test_missing_boundary_is_recorded_not_fatal(capsys):
    module = types.ModuleType("standing_fake_module")

    class Thing:
        @classmethod
        def make(cls):
            return cls.__name__

        def run(self):
            return "ran"

    module.Thing = Thing
    module.helper = lambda: "helped"
    sys.modules[module.__name__] = module
    try:
        tracer = tracing.Tracer()
        tracer.install(
            (
                tracing.Boundary("a.helper", "standing_fake_module:helper"),
                tracing.Boundary("a.run", "standing_fake_module:Thing.run"),
                tracing.Boundary("a.make", "standing_fake_module:Thing.make"),
                tracing.Boundary("a.gone", "standing_fake_module:Thing.gone"),
                tracing.Boundary("b.gone", "standing_no_such_module:f"),
            )
        )
        assert [key for _target, key in tracer.missing] == ["a.gone", "b.gone"]
        assert "not found" in capsys.readouterr().err
        assert module.helper() == "helped"
        assert module.Thing().run() == "ran"
        assert module.Thing.make() == "Thing"
        totals = tracer.snapshot()["totals"]
        assert {key: total[0] for key, total in totals.items()} == {
            "a.helper": 1, "a.run": 1, "a.make": 1,
        }
        tracer.uninstall()
        assert module.Thing.__dict__["run"] is Thing.__dict__["run"]
        assert not hasattr(module.helper, "__wrapped__")
    finally:
        del sys.modules[module.__name__]


def test_every_boundary_exists_on_this_commit():
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.SERVER_BOUNDARIES + tracing.CLIENT_BOUNDARIES)
        assert tracer.missing == []
    finally:
        tracer.uninstall()


# -- the query mix ---------------------------------------------------------

#: Table lengths stand in for the generated rows; the mix reads only those.
_ROWS = {"customers": range(300), "orders": range(1000), "lineitems": range(3000)}


def _mix(workload, seed):
    return mix.Mix(workload, seed, _ROWS)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_sequences_repeat_for_a_seed_and_differ_between_seeds(name):
    workload = spec.WORKLOADS[name]
    first = _mix(workload, 11).sequence("c1", 4)
    again = _mix(workload, 11).sequence("c1", 4)
    other = _mix(workload, 12).sequence("c1", 4)
    assert mix.sequence_hash(first) == mix.sequence_hash(again)
    assert mix.sequence_hash(first) != mix.sequence_hash(other)
    # Whole rounds: every seed runs exactly the same shape counts.
    for ops in (first, other):
        for shape, count in workload.round:
            assert sum(op.shape == shape for op in ops) == 4 * count
    assert mix.sequence_hash(first) != mix.sequence_hash(
        _mix(workload, 11).sequence("c2", 4)
    )


def test_literal_quotas_are_whole_exact_and_proportional():
    assert mix.quotas([1, 1, 1], 10) == [4, 3, 3]
    assert mix.quotas([3, 1], 8) == [6, 2]
    steps = mix.quotas(mix._STEP_WEIGHTS, 1892)
    assert sum(steps) == 1892 and steps == sorted(steps, reverse=True)
    # Every seed uses each churn step equally often; only order differs.
    churn = spec.WORKLOADS["repeat_churn"]
    for seed in (1, 2):
        ops = _mix(churn, seed).sequence("c1", 4)
        tile = mix.TILES["tile_orders_range"]
        assert sum(op.sql == tile(0) for op in ops) == mix.quotas(
            mix._STEP_WEIGHTS, 4 * 43
        )[0]


def test_pools_are_full_and_adhoc_outnumbers_the_plan_cache():
    lookup = _mix(spec.WORKLOADS["lookup"], 3)
    for shape in spec.WORKLOADS["lookup"].shapes:
        assert len(lookup.pools[shape]) == mix.SHAPES[shape][0]
    assert len(lookup.pools["adhoc"]) > spec.PLAN_CACHE_SIZE
    assert len(spec.ALL_SHAPES) == len(set(spec.ALL_SHAPES)) == 24


def test_shard_range_stays_inside_one_shard():
    fanout = _mix(spec.WORKLOADS["fanout"], 5)
    for sql in fanout.pools["shard_range"]:
        low, high = (int(word) for word in sql.split() if word.isdigit())
        assert high - low == 199
        assert (low - 1) // spec.FANOUT_SHARD_ROWS == (high - 1) // spec.FANOUT_SHARD_ROWS


def test_phase_rounds_scale_with_seconds_in_whole_windows():
    workload = spec.WORKLOADS["analytic"]
    full = spec.phase_rounds(workload, spec.RUN_SECONDS, smoke=False)
    assert full == (workload.c1_rounds, workload.c2_rounds)
    half = spec.phase_rounds(workload, spec.RUN_SECONDS / 2, smoke=False)
    smoke = spec.phase_rounds(workload, spec.RUN_SECONDS, smoke=True)
    for rounds in (*full, *half, *smoke):
        assert rounds % spec.WINDOWS == 0 and rounds > 0
    assert half[0] < full[0] and smoke[0] <= full[0] // 10


# -- the oracle ------------------------------------------------------------


def test_cells_normalise_to_what_both_engines_agree_on():
    norm = oracle.normalise_cell
    assert norm(None) == norm(None) != norm("NULL")
    assert norm(True) == 1 and norm(False) == 0
    assert norm(1234.5678912) == norm(1234.57) == "1234.57"
    assert norm(datetime.date(1989, 2, 6)) == "1989-02-06"
    assert norm(3) == 3 and norm("x") == "x"


def test_checksum_ignores_order_and_engine_representation():
    engine = [(1, datetime.date(1989, 2, 6), True, None, 0.1 + 0.2)]
    sqlite = [(1, "1989-02-06", 1, None, 0.3)]
    assert oracle.checksum(engine) == oracle.checksum(sqlite)
    rows = [(1, "a"), (2, "b"), (3, "c")]
    assert oracle.checksum(rows) == oracle.checksum(rows[::-1])
    assert oracle.checksum(rows) != oracle.checksum(rows[:2] + [(3, "d")])


def test_float_on_a_rounding_boundary_falls_back_to_tolerance():
    # 12345.65 sits on the 6-digit rounding boundary: two summation
    # orders land on either side of it and the checksums differ.
    expected = [("a", 12345.649999999998), ("b", 1.0)]
    actual = [("b", 1.0), ("a", 12345.650000000001)]
    assert oracle.checksum(expected) != oracle.checksum(actual)
    answer = oracle.Answer(2, oracle.checksum(expected), expected)
    assert answer.accepts(actual)
    assert not answer.accepts([("b", 1.0), ("a", 12345.75)])
    assert not answer.accepts([("b", 1.0)])
    assert not answer.accepts([("b", 1.0), ("c", 12345.65)])


def test_oracle_answers_with_dates_and_the_fanout_view():
    rows = {
        "orders": [
            (i, 1 + i % 3, datetime.date(1989, 1, 1 + i % 28), 10.0 * i, "OPEN")
            for i in range(1, spec.FANOUT_SHARDS * spec.FANOUT_SHARD_ROWS + 1)
        ],
        "customers": [
            (c, f"n{c}", 1, "BUILDING", datetime.date(1985, 5, 5), 1.5)
            for c in (1, 2, 3)
        ],
    }
    db = oracle.Oracle(spec.WORKLOADS["fanout"], rows)
    try:
        answer = db.answer(
            "SELECT o_id, o_date FROM orders_all "
            "WHERE o_date = DATE '1989-01-02' AND o_id < 40"
        )
        assert sorted(answer.rows) == [(1, "1989-01-02"), (29, "1989-01-02")]
        assert answer.accepts([(29, datetime.date(1989, 1, 2)), (1, datetime.date(1989, 1, 2))])
    finally:
        db.close()


# -- the slow link ---------------------------------------------------------


def test_slow_link_waits_in_execute_pages(monkeypatch):
    """The wrapper must interpose on the method the engine calls."""
    waits = []
    monkeypatch.setattr(federation, "injected_wait", lambda: waits.append(1))

    class Inner:
        name = "erp0"

        def execute_pages(self, fragment, page_rows):
            yield ["page"]

    adapter = federation.SlowLinkAdapter(Inner())
    assert adapter.name == "erp0"
    pages = adapter.execute_pages(None, 10)
    assert waits == []  # nothing before the first page is pulled
    assert list(pages) == [["page"]]
    assert waits == [1]


# -- names, bounds, verdicts -----------------------------------------------


def test_benchmark_json_lists_the_same_metrics_and_workloads():
    described = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert described["paths"] == ["benchmarks/standing"]
    assert described["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in described["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in described["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in described["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def test_compare_verdicts():
    p50 = metrics.Metric("query_ms_p50", "ms", "lower", 0.10)
    qps = metrics.Metric("qps_c1", "1/s", "higher", 0.10)
    wan = metrics.Metric("wan_bytes_per_query", "bytes", "lower", 0.10, "virtual")
    verdict = lambda *args: report._verdict(*args)[0]  # noqa: E731
    assert verdict(p50, 10.0, 10.5, 0.0) == "same"
    assert verdict(p50, 10.0, 11.5, 0.0) == "worse"
    assert verdict(p50, 10.0, 8.5, 0.0) == "better"
    # A run whose own windows spread wider than the bound resolves nothing.
    assert verdict(p50, 10.0, 11.5, 0.11) == "unresolved"
    assert verdict(p50, 10.0, 10.1, 0.11) == "unresolved"
    assert verdict(qps, 100.0, 85.0, 0.0) == "worse"
    assert verdict(qps, 100.0, 115.0, 0.0) == "better"
    # Virtual-clock counts compare by equality, whatever the bound.
    assert verdict(wan, 1000.0, 1000.0, 0.0) == "same"
    assert verdict(wan, 1000.0, 1000.5, 0.0) == "worse"
    assert verdict(wan, 1000.0, 999.0, 0.0) == "better"
    assert verdict(metrics.FAILED_SHARE, 0.0, 0.01, 0.0) == "worse"
    assert verdict(metrics.FAILED_SHARE, 0.0, 0.0, 0.0) == "same"
    assert "of 10" in report._verdict(p50, 10.0, 11.5, 0.0)[1]  # the ratio's base
