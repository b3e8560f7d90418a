"""The server child: one workload's federation behind a ``QueryServer``,
plus a line-oriented control channel on stdin/stdout.

First line out: ``{"port": ..., "setup": {...}}``. Then one JSON reply per
command line in:

* ``mark`` - a snapshot of the counters the load generator takes deltas of
  (the wire protocol's ``metrics`` payload carries no bytes shipped, so WAN
  numbers come from here, not from responses);
* ``notify <source>`` - ``gis.notify_source_changed(source)``, timed;
* ``quit`` - stop serving, write the trace if tracing, reply with the peak
  resident set and exit. End of input is treated as ``quit``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict

from repro.serve import QueryServer, ServerConfig

from . import federation, spec


def peak_rss_kb() -> int:
    """This process's peak resident set in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the parent's peak
    across fork and exec into the child's ``ru_maxrss``, so a child of a
    large load generator would report the load generator's memory.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _mark(gis: Any, server: QueryServer, notify: Dict[str, float], tracer: Any) -> Dict[str, Any]:
    total = gis.network.total
    admission = {
        tenant: {
            "queue_wait_ms_total": stats.queue_wait_ms_total,
            "rejected": stats.rejected,
            "completed": stats.completed,
            "failed": stats.failed,
        }
        for tenant, stats in server.scheduler.stats().items()
    }
    mark: Dict[str, Any] = {
        "process_time_s": time.process_time(),
        "network": {
            "bytes": total.bytes,
            "messages": total.messages,
            "simulated_ms": total.simulated_ms,
        },
        "plan_cache": gis.plan_cache.stats(),
        "fragment_cache": gis.fragment_cache.stats(),
        "admission": admission,
        "notify": dict(notify),
    }
    if tracer is not None:
        mark["trace"] = tracer.snapshot()
    return mark


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True, help="directory for the CSV source's files")
    parser.add_argument("--trace-out", help="trace the run and write spans here at quit")
    args = parser.parse_args()

    workload = spec.WORKLOADS[args.workload]
    gis, setup = federation.build(workload, args.seed, args.scratch)

    tracer = None
    if args.trace_out:
        # Imported here only: the untraced run must not load the tracer.
        from . import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.SERVER_BOUNDARIES)

    listen_started = time.perf_counter()
    server = QueryServer(gis, ServerConfig(max_workers=spec.SERVER_WORKERS))
    _host, port = server.start_background()
    setup["listen_s"] = time.perf_counter() - listen_started

    def reply(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
        sys.stdout.flush()

    reply({"port": port, "setup": setup})
    notify = {"calls": 0, "ms_total": 0.0}
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "mark":
                reply(_mark(gis, server, notify, tracer))
            elif command == "notify":
                started = time.perf_counter()
                epoch = gis.notify_source_changed(argument)
                notify["calls"] += 1
                notify["ms_total"] += (time.perf_counter() - started) * 1000.0
                reply({"epoch": epoch})
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop_background()
    if tracer is not None:
        tracer.write_spans(args.trace_out)
    reply({"peak_rss_kb": peak_rss_kb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
