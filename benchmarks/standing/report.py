"""The result schema, its environment fingerprint, the printed report and
``compare``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import metrics, spec

SCHEMA = "standing-benchmark/1"


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=spec.REPO_ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def benchmark_hash() -> str:
    """One hash over the benchmark's own source files."""
    digest = hashlib.sha256()
    for path in sorted(spec.HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "op_counts": {
            name: {
                phase: rounds * workload.round_ops
                for phase, rounds in zip(
                    ("c1", "c2"), spec.phase_rounds(workload, seconds, smoke)
                )
            }
            for name, workload in spec.WORKLOADS.items()
        },
        "benchmark_hash": benchmark_hash(),
    }


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value)}"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def _rows(entries: Dict[str, Dict[str, Any]], names: List[str]) -> List[str]:
    return [
        f"    {name:<38} {_format(entries[name]['value']):>12} "
        f"{entries[name]['unit']:<10} n={entries[name]['samples']}"
        for name in names
    ]


def render(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, per workload; wall-clock and
    virtual-clock numbers in separate blocks."""
    fp = result["fingerprint"]
    lines = [
        f"standing benchmark  seed={fp['seed']} seconds={fp['seconds']} "
        f"smoke={fp['smoke']} commit={fp['git_commit']} dirty={fp['git_dirty']}",
        f"python {fp['python']} on {fp['platform']} ({fp['nproc']} cpus)",
    ]
    wall = [m.name for m in metrics.END_TO_END if m.clock == "wall"]
    virtual = [m.name for m in metrics.END_TO_END if m.clock == "virtual"]
    for name, run in result["workloads"].items():
        lines += ["", f"== {name}: {run['why']}"]
        for phase, counts in run["phases"].items():
            lines.append(
                f"  phase {phase}: clients={counts['clients']} sent={counts['sent']} "
                f"succeeded={counts['succeeded']} failed={counts['failed']}"
            )
        entries = run["end_to_end"]
        lines.append("  end to end, wall clock (this machine):")
        lines += _rows(entries, wall)
        lines.append("  end to end, virtual clock (simulated WAN, exact for a seed):")
        lines += _rows(entries, virtual)
        lines.append("  failures:")
        lines += _rows(entries, [metrics.FAILED_SHARE.name])
        layers = run.get("per_layer")
        if layers:
            lines.append("  per layer (traced c1 run, mean per op unless the unit says otherwise):")
            shown = [
                m.name for m in metrics.PER_LAYER
                # Other workloads' shapes carry no samples here.
                if not m.name.startswith("shape.")
                or m.name.split(".")[1] in spec.WORKLOADS[name].shapes
            ]
            lines += _rows(layers, shown)
    return "\n".join(lines)


def _verdict(
    metric: metrics.Metric, a: float, b: float, spread: float
) -> Tuple[str, str]:
    """(verdict, ratio text) for baseline ``a`` and candidate ``b``."""
    ratio = f"{b / a:.4f} of {_format(a)}" if a else "base 0"
    exact = metric.clock == "virtual" or metric is metrics.FAILED_SHARE
    lower = metric.better == "lower"
    if exact:
        if a == b:
            return "same", ratio
        return ("better" if (b < a) == lower else "worse"), ratio
    bound = metric.bound or 0.0
    if spread > bound:
        return "unresolved", ratio
    change = (b - a) / a if a else 0.0
    if not lower:
        change = -change
    if change > bound:
        return "worse", ratio
    if change < -bound:
        return "better", ratio
    return "same", ratio


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric; non-zero exit on any
    *worse* verdict (a higher ``failed_share`` is one)."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for key in ("seed", "seconds", "smoke", "op_counts"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(
                f"warning: {key} differs ({a['fingerprint'][key]} vs "
                f"{b['fingerprint'][key]}); exact counts will not compare",
                file=sys.stderr,
            )
    print(
        f"{'workload':<13} {'metric':<26} {'A':>12} {'B':>12}  "
        f"{'ratio (B of A)':<24} {'bound':>6}  verdict"
    )
    worse = 0
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            continue
        for metric in metrics.END_TO_END + [metrics.FAILED_SHARE]:
            value_a = run_a["end_to_end"][metric.name]["value"]
            value_b = run_b["end_to_end"][metric.name]["value"]
            spread = max(
                run_a["window_spread"].get(metric.name, 0.0),
                run_b["window_spread"].get(metric.name, 0.0),
            )
            verdict, ratio = _verdict(metric, value_a, value_b, spread)
            worse += verdict == "worse"
            print(
                f"{name:<13} {metric.name:<26} {_format(value_a):>12} "
                f"{_format(value_b):>12}  {ratio:<24} "
                f"{metric.bound if metric.bound is not None else '-':>6}  {verdict}"
            )
    return 1 if worse else 0
