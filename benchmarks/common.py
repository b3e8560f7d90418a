"""Shared helpers for the experiment benchmarks.

Every experiment emits its table/series both to stdout and to
``benchmarks/results/<name>.txt`` so the regenerated numbers survive the
pytest run (EXPERIMENTS.md records them). Experiments that feed the
cross-PR perf trajectory additionally emit a machine-readable
``benchmarks/results/BENCH_<ID>.json`` via :func:`emit_json` — same
schema style as ``BENCH_S1.json``: a flat object of headline numbers
plus nested per-query/per-mode breakdowns.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(name: str, title: str, lines: Iterable[str]) -> str:
    """Print an experiment table and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join([f"== {title} ==", *lines, ""])
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    print()
    print(text)
    return text


def emit_json(name: str, payload: Dict[str, Any]) -> str:
    """Persist a machine-readable result as ``results/<name>.json``.

    ``name`` is the file stem (``BENCH_F7`` → ``BENCH_F7.json``); floats
    should be pre-rounded by the caller so diffs stay readable. Returns
    the path written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[json] {path}")
    return path


def format_row(cells: Sequence[object], widths: Sequence[int]) -> str:
    """Right-align numeric-looking cells into fixed-width columns."""
    rendered: List[str] = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            rendered.append(f"{cell:>{width}.1f}")
        else:
            rendered.append(f"{str(cell):>{width}}")
    return " | ".join(rendered)
