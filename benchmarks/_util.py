"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Besides the
timing collected by pytest-benchmark, the rendered table/series is printed
to stdout (visible with ``pytest -s``) and written to
``benchmarks/results/<name>.txt`` so the numbers can be compared against the
paper after a run (see EXPERIMENTS.md).  Measured wall-clock and memory
numbers change on every run, so they are printed only: a run leaves the
tracked tables unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Generator scale shared by the benchmarks.  1.0 keeps the full suite in
#: the low minutes; raise it (e.g. REPRO_BENCH_SCALE=4) for larger runs.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def save_result(name: str, text: str, timings: str | None = None) -> Path:
    """Print a rendered experiment table and persist it under results/.

    ``timings`` — the run's measured times and memory — is printed after
    the table but not persisted.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
    if timings is not None:
        print(f"\n{timings}\n[not saved: measured, changes every run]")
    return path


def save_json(name: str, payload: dict, directory: Path | str | None = None) -> Path:
    """Persist machine-readable benchmark data as ``<name>.json``.

    Used by the CI perf-regression guard (``benchmarks/perf_guard.py``) to
    write ``BENCH_ci.json``; defaults to the same ``results/`` directory as
    the rendered text tables.
    """
    target_dir = Path(directory) if directory is not None else RESULTS_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"[json saved to {path}]")
    return path


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)
