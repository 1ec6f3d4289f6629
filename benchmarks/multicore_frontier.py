"""Multi-core frontier benchmark: the shm backend's scaling curve.

Times one fixed k-way recursive bisection (fb-80 preset) through the
``"shm"`` zero-copy shared-memory backend at a sweep of worker counts,
against the serial reference.  Every parallel run is checked *bit for
bit* against the serial assignment (the determinism contract; a
mismatch exits non-zero), and the executor's shared-memory counters —
pooled waves and tasks, bytes shared (one arena per walk), payload
bytes per dispatched task — land in the JSON report next to the
speedups.

The serial reference times each frontier wave.  ``serial_fraction`` is
the share of its wall time spent outside waves of two or more tasks —
the part no worker pool can overlap — and ``amdahl_bound_w2 = 1 / (f +
(1 - f) / 2)`` is the most 2 workers can gain over serial with that
fraction ``f``.  Read ``speedup_w2`` against the bound, not against a
fixed floor.

What the CI ``multicore-perf`` lane runs::

    PYTHONPATH=src python benchmarks/multicore_frontier.py multicore.json \
        --workers 1 2 4
    python benchmarks/perf_guard.py record multicore.json --label multicore \
        --keys speedup_w2 speedup_w4 efficiency_w2 serial_seconds \
               serial_fraction amdahl_bound_w2 shm_payload_bytes_per_task
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ExecutionConfig, GDConfig, recursive_bisection
from repro.core.executor import BisectionExecutor
from repro.graphs import fb_like, standard_weights

DEFAULT_WORKER_COUNTS = (1, 2, 4)


class WaveTimer(BisectionExecutor):
    """The serial executor, recording ``(tasks, seconds)`` per frontier wave."""

    def __init__(self):
        super().__init__()
        self.waves: list[tuple[int, float]] = []

    def solve_frontier(self, walk, tasks, warm_lambdas):
        start = time.perf_counter()
        results = super().solve_frontier(walk, tasks, warm_lambdas)
        self.waves.append((len(results), time.perf_counter() - start))
        return results


def run_sweep(scale: float = 2.0, num_parts: int = 16, iterations: int = 40,
              seed: int = 0, epsilon: float = 0.05,
              worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS) -> dict:
    """Serial reference + one shm run per worker count; flat metric dict.

    ``num_parts=16`` gives the scheduler frontier waves of up to 8
    independent tasks, enough to keep 4 workers busy; ``scale=2.0``
    makes each task heavy enough (hundreds of milliseconds) that the
    per-walk arena setup is noise.
    """
    graph = fb_like(80, scale=scale, seed=seed)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=iterations, seed=seed)

    timer = WaveTimer()
    start = time.perf_counter()
    reference = recursive_bisection(graph, weights, num_parts, epsilon, config,
                                    executor=timer)
    serial_seconds = time.perf_counter() - start
    pooled = sum(seconds for tasks, seconds in timer.waves if tasks >= 2)
    serial_fraction = (serial_seconds - pooled) / serial_seconds
    amdahl_bound_w2 = 1.0 / (serial_fraction + (1.0 - serial_fraction) / 2)
    print(f"serial: {serial_seconds:.3f}s, serial fraction {serial_fraction:.2f} "
          f"(2-worker Amdahl bound {amdahl_bound_w2:.2f}x)")

    report: dict = {
        "num_vertices": float(graph.num_vertices),
        "num_edges": float(graph.num_edges),
        "num_parts": float(num_parts),
        "cpu_count": float(os.cpu_count() or 1),
        "serial_seconds": serial_seconds,
        "serial_fraction": serial_fraction,
        "amdahl_bound_w2": amdahl_bound_w2,
    }
    shm_stats = None
    for workers in worker_counts:
        execution = ExecutionConfig(parallelism="shm", max_workers=workers)
        with BisectionExecutor(execution) as executor:
            start = time.perf_counter()
            partition = recursive_bisection(graph, weights, num_parts, epsilon,
                                            config, executor=executor)
            seconds = time.perf_counter() - start
            shm_stats = executor.stats.shm
        if not np.array_equal(partition.assignment, reference.assignment):
            raise AssertionError(
                f"shm backend with {workers} worker(s) diverged from the "
                f"serial reference — determinism contract violated")
        speedup = serial_seconds / max(seconds, 1e-9)
        report[f"seconds_w{workers}"] = seconds
        report[f"speedup_w{workers}"] = speedup
        report[f"efficiency_w{workers}"] = speedup / workers
        print(f"workers={workers}: {seconds:.3f}s "
              f"(speedup {speedup:.2f}x, efficiency {speedup / workers:.2f}, "
              f"identical to serial)")

    if "speedup_w2" in report:
        print(f"speedup_w2 {report['speedup_w2']:.2f}x against the Amdahl bound "
              f"{amdahl_bound_w2:.2f}x (serial fraction {serial_fraction:.2f})")

    # The zero-copy claim, from the last run's counters (identical across
    # runs: same waves, same graph).
    if shm_stats is not None and shm_stats.tasks:
        report["shm_waves"] = float(shm_stats.waves)
        report["shm_tasks"] = float(shm_stats.tasks)
        report["shm_bytes_shared"] = float(shm_stats.bytes_shared)
        report["shm_payload_bytes_per_task"] = shm_stats.payload_bytes_per_task
        print(f"shm: {shm_stats.waves} waves, {shm_stats.tasks} tasks, "
              f"{shm_stats.payload_bytes_per_task:.0f} B/task over the pipe, "
              f"{shm_stats.bytes_shared / 1e6:.1f} MB shared")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="path of the metrics JSON")
    parser.add_argument("--workers", type=int, nargs="+",
                        default=list(DEFAULT_WORKER_COUNTS))
    parser.add_argument("--scale", type=float, default=2.0)
    parser.add_argument("--parts", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = run_sweep(scale=args.scale, num_parts=args.parts,
                       iterations=args.iterations, seed=args.seed,
                       worker_counts=tuple(args.workers))
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"[report written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
