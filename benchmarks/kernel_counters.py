"""Dump per-kernel call/ns counters as a flat metrics JSON.

Runs one fixed fb-preset bisection and writes the per-kernel nanosecond
totals (plus call counts) that
:class:`~repro.core.gd.BisectionResult.kernel_stats` surfaces, flattened
to ``<kernel>.ns`` / ``.calls`` keys::

    PYTHONPATH=src python benchmarks/kernel_counters.py kernel_stats.json
    python benchmarks/perf_guard.py record kernel_stats.json --label kernels

The perf lane appends these to ``BENCH_history.jsonl`` next to the
microbenchmark medians, so per-kernel cost drift is visible in the same
cross-run trend table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import GDConfig, gd_bisect
from repro.graphs import fb_like, standard_weights


def collect(iterations: int = 60, scale: float = 1.0) -> dict[str, float]:
    """One bisection on the fb-80 preset; flat metric dict."""
    graph = fb_like(80, scale=scale, seed=0)
    weights = standard_weights(graph, 2)
    result = gd_bisect(graph, weights, 0.05, GDConfig(iterations=iterations, seed=0))
    metrics: dict[str, float] = {}
    for name, entry in result.kernel_stats.items():
        metrics[f"{name}.ns"] = float(entry["ns"])
        metrics[f"{name}.calls"] = float(entry["calls"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="path of the metrics JSON")
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    metrics = collect(iterations=args.iterations, scale=args.scale)
    args.output.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"{len(metrics)} kernel metrics written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
