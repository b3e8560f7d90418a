"""CI smoke: end-to-end tracing over a real parallel federated query.

Runs one aggregation over the F2 scale-out substrate (``orders``
range-partitioned across 4 SQLite sources) with the parallel fragment
scheduler and tracing enabled, then fails the build unless:

* the mediator phases (parse, analyze, rewrite, plan, execute) all appear
  as spans parented under the query root,
* every operator in the physical plan produced an ``operator`` span under
  the execute phase,
* each of the 4 partition fragments produced a ``fragment`` span that is
  parented under the execute phase but was *recorded on a scheduler worker
  thread* (the cross-thread propagation invariant), and
* the exported Chrome ``trace_event`` file is valid JSON whose X/M/i
  events carry the required keys and internally-consistent span ids.

The span tree is written to ``benchmarks/results/trace_smoke.txt``.
Run directly::

    python benchmarks/trace_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import PlannerOptions  # noqa: E402
from repro.obs import format_span_tree  # noqa: E402
from repro.workloads.tpch_lite import build_partitioned_orders  # noqa: E402

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "trace_smoke.txt"
)
PARTITIONS = 4
SQL = (
    "SELECT o_status, COUNT(*), SUM(o_total) FROM orders_all "
    "WHERE o_total > 100.0 GROUP BY o_status ORDER BY o_status"
)
PHASES = {"phase:parse", "phase:analyze", "phase:rewrite",
          "phase:plan", "phase:execute"}


def fail(message: str) -> None:
    sys.stderr.write(f"trace smoke FAILED: {message}\n")
    sys.exit(1)


def validate_chrome_file(path: str) -> int:
    with open(path) as handle:
        document = json.load(handle)
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("exported trace has no traceEvents")
    span_ids = set()
    for event in events:
        if not {"name", "ph", "pid", "tid"} <= set(event):
            fail(f"event missing required keys: {event}")
        if event["ph"] not in {"M", "X", "i"}:
            fail(f"unexpected event phase {event['ph']!r}")
        if event["ph"] == "X":
            if event["ts"] < 0 or event["dur"] < 0:
                fail(f"negative timestamp in {event}")
            span_ids.add(event["args"]["span_id"])
    for event in events:
        if event["ph"] == "X" and "parent_id" in event["args"]:
            if event["args"]["parent_id"] not in span_ids:
                fail(f"dangling parent_id in {event}")
    return len(events)


def main() -> None:
    out = os.path.join(tempfile.mkdtemp(prefix="gis-trace-"), "trace.json")
    federation = build_partitioned_orders(PARTITIONS, rows_per_partition=200)
    gis = federation.gis
    gis.obs.trace_path = out
    gis.obs.tracer.enable()

    result = gis.query(SQL, PlannerOptions(max_parallel_fragments=PARTITIONS))
    if not result.rows:
        fail("query returned no rows")

    spans = gis.obs.spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    roots = by_name.get("query", [])
    if len(roots) != 1:
        fail(f"expected exactly one query root span, got {len(roots)}")
    root = roots[0]

    missing = PHASES - {
        s.name for s in spans if s.parent_id == root.span_id
    }
    if missing:
        fail(f"mediator phases missing from trace: {sorted(missing)}")

    (execute,) = by_name["phase:execute"]
    operators = [s for s in spans if s.category == "operator"]
    if not operators:
        fail("no operator spans recorded")
    if any(s.parent_id != execute.span_id for s in operators):
        fail("operator span not parented under phase:execute")

    fragments = [s for s in spans if s.category == "fragment"]
    if len(fragments) < PARTITIONS:
        fail(f"expected >= {PARTITIONS} fragment spans, got {len(fragments)}")
    for span in fragments:
        if span.parent_id != execute.span_id:
            fail(f"fragment span {span.name} not parented under execute")
        if span.attributes.get("mode", "").startswith("parallel") and (
            span.thread_name == execute.thread_name
        ):
            fail(f"parallel fragment {span.name} ran on the mediator thread")
    workers = {
        s.thread_name for s in fragments
        if s.attributes.get("mode", "").startswith("parallel")
    }
    if not workers:
        fail("no fragment ran under the parallel scheduler")

    n_events = validate_chrome_file(out)

    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    summary = (
        f"{len(spans)} spans ({len(fragments)} fragments on "
        f"{len(workers)} worker threads), {n_events} Chrome events\n\n"
        + format_span_tree(spans)
        + "\n"
    )
    with open(RESULTS_PATH, "w") as handle:
        handle.write(summary)
    print(summary)
    print("trace smoke OK")


if __name__ == "__main__":
    main()
