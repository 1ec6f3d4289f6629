"""Figure 11 — scalability of GD with the number of edges.

The paper reports machine-hours of the distributed GD implementation on
FB-X graphs of increasing size and observes a near-linear dependence on the
number of edges.  We reproduce the property on a single machine: wall-clock
time of one GD bisection as a function of |E| over a sweep of generated
graphs, together with the coefficient of determination of a linear fit
through the origin.

Besides the cost-model-style sweep (:func:`run`), :func:`run_parallel`
measures the *actual* wall-clock behaviour of the parallel recursive
bisection scheduler: one k-way partitioning on the ``"shm"`` backend per
worker count, each checked bit for bit against the serial reference (the
deterministic-seeding contract of :mod:`repro.core.recursive`).

The ``format_*`` helpers keep the measured times apart from the rest:
:func:`format_result` / :func:`format_parallel_result` render what a run
reproduces exactly, :func:`format_timings` / :func:`format_parallel_timings`
the wall-clock columns, the fit and the host's CPU count.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..core import ExecutionConfig, GDConfig, gd_bisect, recursive_bisection
from ..graphs import fb_like, standard_weights
from .reporting import format_table

__all__ = ["run", "run_parallel", "format_result", "format_timings",
           "format_parallel_result", "format_parallel_timings",
           "linear_fit_r_squared"]

DEFAULT_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)

DEFAULT_WORKER_COUNTS = (1, 2, 4)


def linear_fit_r_squared(edge_counts: np.ndarray, times: np.ndarray) -> float:
    """R² of the best through-the-origin linear fit ``time ≈ c · |E|``."""
    edge_counts = np.asarray(edge_counts, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if edge_counts.size < 2 or float(edge_counts @ edge_counts) == 0.0:
        return 1.0
    slope = float(edge_counts @ times) / float(edge_counts @ edge_counts)
    residual = times - slope * edge_counts
    total = times - times.mean()
    denominator = float(total @ total)
    if denominator == 0.0:
        return 1.0
    return 1.0 - float(residual @ residual) / denominator


def run(scales: tuple[float, ...] = DEFAULT_SCALES, seed: int = 0,
        iterations: int = 50, epsilon: float = 0.05) -> dict:
    """Time GD bisection on FB-like graphs of growing size.

    Each size is timed as the fastest of three identical bisections, so a
    single host hiccup cannot bend the fit.
    """
    rows: list[dict] = []
    for scale in scales:
        graph = fb_like(80, scale=scale, seed=seed)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=iterations, seed=seed)
        seconds = min(gd_bisect(graph, weights, epsilon, config).elapsed_seconds
                      for _ in range(3))
        rows.append({
            "scale": scale,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seconds": seconds,
        })
    edge_counts = np.array([row["num_edges"] for row in rows], dtype=np.float64)
    times = np.array([row["seconds"] for row in rows])
    return {
        "rows": rows,
        "r_squared": linear_fit_r_squared(edge_counts, times),
    }


def run_parallel(scale: float = 4.0, num_parts: int = 8,
                 worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
                 seed: int = 0, iterations: int = 30,
                 epsilon: float = 0.05) -> dict:
    """Measured-parallel mode: k-way partitioning time vs worker count.

    Runs the serial scheduler once as the reference, then the ``"shm"``
    backend for every entry of ``worker_counts``, recording wall-clock time,
    speedup over serial, and whether the assignment matched the serial
    reference exactly (it must, by the deterministic-seeding contract).
    Speedups > 1 require actual hardware parallelism — on a single-core
    machine the pool degrades gracefully to roughly serial time plus pool
    overhead.
    """
    graph = fb_like(80, scale=scale, seed=seed)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=iterations, seed=seed)

    start = time.perf_counter()
    reference = recursive_bisection(graph, weights, num_parts, epsilon, config)
    serial_seconds = time.perf_counter() - start

    rows = [{"backend": "serial", "workers": 1, "seconds": serial_seconds,
             "speedup": 1.0, "identical": True}]
    for workers in worker_counts:
        execution = ExecutionConfig(parallelism="shm", max_workers=workers)
        start = time.perf_counter()
        partition = recursive_bisection(graph, weights, num_parts, epsilon,
                                        config.with_updates(execution=execution))
        seconds = time.perf_counter() - start
        rows.append({
            "backend": "shm",
            "workers": workers,
            "seconds": seconds,
            "speedup": serial_seconds / max(seconds, 1e-9),
            "identical": bool(np.array_equal(partition.assignment,
                                             reference.assignment)),
        })
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_parts": num_parts,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


def format_result(result: dict) -> str:
    """The sweep's graph sizes; the times are in :func:`format_timings`."""
    headers = ["scale", "|V|", "|E|"]
    table_rows = [[row["scale"], row["num_vertices"], row["num_edges"]]
                  for row in result["rows"]]
    return format_table(headers, table_rows,
                        title="Figure 11: GD runtime vs graph size", precision=3)


def format_timings(result: dict) -> str:
    """The sweep's measured times and the linear fit through the origin."""
    table = format_table(["|E|", "seconds"],
                         [[row["num_edges"], row["seconds"]] for row in result["rows"]],
                         title="Figure 11: GD runtime", precision=3)
    return table + f"\nlinear-fit R^2 = {result['r_squared']:.3f}"


def format_parallel_result(result: dict) -> str:
    """Whether every backend run matched the serial reference; the times
    are in :func:`format_parallel_timings`."""
    headers = ["backend", "workers", "identical"]
    table_rows = [[row["backend"], row["workers"], row["identical"]]
                  for row in result["rows"]]
    title = (f"Figure 11 (measured): k={result['num_parts']} recursive bisection, "
             f"|V|={result['num_vertices']} |E|={result['num_edges']}")
    return format_table(headers, table_rows, title=title)


def format_parallel_timings(result: dict) -> str:
    """Measured wall-clock time and speedup over serial per run."""
    headers = ["backend", "workers", "seconds", "speedup"]
    table_rows = [[row["backend"], row["workers"], row["seconds"], row["speedup"]]
                  for row in result["rows"]]
    return format_table(headers, table_rows, precision=3,
                        title=f"Figure 11 (measured): {result['cpu_count']} CPU(s)")
