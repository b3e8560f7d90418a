"""Entry point of the standing benchmark.

    python -m benchmarks.standing.run --seed N            # all four workloads
    python -m benchmarks.standing.run --seed N --smoke    # 1/20 of the ops
    python -m benchmarks.standing.run --workload fanout --seed N
    python -m benchmarks.standing.run compare A.json B.json

The benchmark driver calls it as described by ``BENCHMARK.json``::

    python3 benchmarks/standing/run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: the package's directory must not shadow top-level
    # module names, and the package itself must be importable.
    sys.path[0] = str(REPO_ROOT)
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"standing benchmark: no program to measure under {REPO_ROOT / 'src'}")
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.workloads.tpch_lite import generate_rows  # noqa: E402

from benchmarks.standing import loadgen, metrics, report, spec  # noqa: E402
from benchmarks.standing.loadgen import HarnessError, Phase, ServerChild  # noqa: E402
from benchmarks.standing.mix import Mix, sequence_hash  # noqa: E402
from benchmarks.standing.oracle import Oracle  # noqa: E402

#: Server set-ups per untraced run (``setup_s`` is their median), and per
#: smoke run, which only has to pass through the stage.
SETUPS = 5
SMOKE_SETUPS = 2


def _split(ops: List[Any]) -> List[List[Any]]:
    half = len(ops) // 2
    return [ops[:half], ops[half:]]


def _phase_counts(phase: Phase) -> Dict[str, int]:
    return {
        "clients": phase.clients,
        "sent": len(phase.samples),
        "succeeded": len(phase.ok_samples),
        "failed": phase.failed,
    }


def _cold_ms(ops: List[Any], latencies: List[float]) -> Dict[str, float]:
    """Latency of the first execution of each shape after server start."""
    cold: Dict[str, float] = {}
    for op, latency in zip(ops, latencies):
        cold.setdefault(op.shape, latency)
    return cold


def run_workload(
    name: str, seed: int, seconds: float, smoke: bool, setups: int, traced: bool
) -> Dict[str, Any]:
    """All stages of one workload: generate, set up, verify-clean, warm
    up, c1, c2, and - with ``traced`` - the traced c1 run on a fresh
    server."""
    workload = spec.WORKLOADS[name]
    rows = generate_rows(workload.scale, seed)
    mix = Mix(workload, seed, rows)
    c1_rounds, c2_rounds = spec.phase_rounds(workload, seconds, smoke)
    warm_ops = mix.sequence("warm", 1)
    c1_ops = mix.sequence("c1", c1_rounds)
    c2_ops = mix.sequence("c2", c2_rounds)
    distinct = mix.distinct_ops()
    notify = spec.CHURN_NOTIFY_SOURCES if name == "repeat_churn" else ()
    oracle = Oracle(workload, rows)

    setup_times: List[float] = []
    for _ in range(setups - 1):
        with ServerChild(name, seed) as spare:
            setup_times.append(spare.setup_s)
            spare.quit()
    with ServerChild(name, seed) as child:
        setup_times.append(child.setup_s)
        answers, _latencies = loadgen.verify_clean(child, distinct, oracle.answer)
        oracle.close()
        _warm(child, warm_ops, answers)
        c1 = loadgen.run_phase(child, [c1_ops], answers, notify)
        c2 = loadgen.run_phase(child, _split(c2_ops), answers, notify)
        final = child.quit()

    run: Dict[str, Any] = {
        "why": workload.why,
        "sequence_hash": sequence_hash(warm_ops + c1_ops + c2_ops),
        "distinct_sql": len(distinct),
        "phases": {"c1": _phase_counts(c1), "c2": _phase_counts(c2)},
        "end_to_end": metrics.end_to_end(setup_times, c1, c2, final["peak_rss_kb"]),
        "window_spread": metrics.window_spreads(c1, c2),
    }
    p50 = run["end_to_end"]["query_ms_p50"]["value"]
    if name == "fanout" and not smoke and p50 < spec.FANOUT_LATENCY_FLOOR_MS:
        raise HarnessError(
            f"fanout query_ms_p50 {p50:.2f} ms is below the injected floor of "
            f"{spec.FANOUT_LATENCY_FLOOR_MS:.0f} ms: the slow-link wrapper is bypassed"
        )
    if traced:
        run["per_layer"], run["phases"]["c1_traced"] = _traced_run(
            workload, seed, distinct, warm_ops, c1_ops, answers, notify, c1, c2,
            child.setup_stages,
        )
    return run


def _warm(child: ServerChild, warm_ops: List[Any], answers: Dict[str, Any]) -> None:
    warm = loadgen.run_phase(child, [warm_ops], answers)
    if warm.failed:
        raise HarnessError(f"{warm.failed} warm-up ops failed after verify-clean")


def _traced_run(
    workload: spec.WorkloadSpec,
    seed: int,
    distinct: List[Any],
    warm_ops: List[Any],
    c1_ops: List[Any],
    answers: Dict[str, Any],
    notify: Any,
    c1: Phase,
    c2: Phase,
    setup_stages: Dict[str, float],
) -> Any:
    """Same stages and ops as the untraced c1 on a fresh, traced server;
    the load generator traces its own codec for the same phase."""
    from benchmarks.standing import tracing  # the untraced run never loads it

    trace_out = spec.OUT_DIR / f"trace-{workload.name}.jsonl"
    client_tracer = tracing.Tracer()
    client_tracer.install(tracing.CLIENT_BOUNDARIES)
    try:
        with ServerChild(workload.name, seed, trace_out=trace_out) as child:
            _answers, latencies = loadgen.verify_clean(child, distinct, answers.__getitem__)
            _warm(child, warm_ops, answers)
            before = client_tracer.snapshot()
            traced = loadgen.run_phase(child, [c1_ops], answers, notify)
            after = client_tracer.snapshot()
            child.quit()
    finally:
        client_tracer.uninstall()
    client_trace = {
        "missing": after["missing"],
        "totals": {
            key: [now - then for now, then in zip(total, before["totals"].get(key, [0] * 4))]
            for key, total in after["totals"].items()
        },
    }
    layers = metrics.per_layer(
        c1, c2, traced, client_trace, _cold_ms(distinct, latencies),
        setup_stages,
    )
    return layers, _phase_counts(traced)


def _contract_line(run: Dict[str, Any], traced: bool) -> str:
    """The driver's result object. Values it requires to be numbers are
    numbers: a per-layer metric that is not applicable (null in the result
    file) reads 0 here, with ``trace.boundaries_missing`` saying why."""
    phases = run["phases"].values()
    attempted = sum(phase["sent"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    if traced:
        names = [m.name for m in metrics.PER_LAYER]
        entries = run["per_layer"]
    else:
        names = [m.name for m in metrics.END_TO_END]
        entries = run["end_to_end"]
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {
                    "value": 0.0 if entries[name]["value"] is None else entries[name]["value"],
                    "unit": entries[name]["unit"],
                }
                for name in names
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return report.compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="1/20 of the ops, no bounds enforced")
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS),
        help="nominal seconds of timed load; op counts scale with it (driver)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver mode: one workload, print one JSON result line",
    )
    args = parser.parse_args(argv)

    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            traced = bool(args.trace)
            run = run_workload(
                args.workload, args.seed, args.seconds, args.smoke,
                setups=1 if traced else SETUPS, traced=traced,
            )
            print(_contract_line(run, traced))
            return 0
        names = [args.workload] if args.workload else list(spec.WORKLOADS)
        result = {
            "schema": report.SCHEMA,
            "fingerprint": report.fingerprint(args.seed, args.seconds, args.smoke),
            "workloads": {
                name: run_workload(
                    name, args.seed, args.seconds, args.smoke,
                    SMOKE_SETUPS if args.smoke else SETUPS, traced=True,
                )
                for name in names
            },
        }
    except HarnessError as exc:
        print(f"standing benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(report.render(result))
    kind = "smoke" if args.smoke else "result"
    path = spec.OUT_DIR / f"{kind}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"\nresult written to {path}")
    failed = sum(
        phase["failed"] for run in result["workloads"].values()
        for phase in run["phases"].values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
