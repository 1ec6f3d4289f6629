"""Benchmark regenerating Figure 11: GD runtime vs graph size.

Paper shape to reproduce: near-linear dependence of the partitioning time
on the number of edges.  The measured-parallel companion exercises the
frontier scheduler's shm backend against the serial reference.
"""

import multiprocessing
import os

import pytest

from repro.experiments import fig11_scalability

from _util import run_once, save_result


def test_fig11_scalability(benchmark):
    # From scale 1 up: below it a bisection takes a few ms, most of it the
    # per-iteration interpreter overhead that does not grow with |E|.
    result = run_once(benchmark, lambda: fig11_scalability.run(
        scales=(1.0, 2.0, 4.0, 8.0, 16.0), iterations=50))
    save_result("fig11_scalability", fig11_scalability.format_result(result),
                fig11_scalability.format_timings(result))

    rows = result["rows"]
    # Monotone in |E| and close to a linear fit through the origin.
    edge_counts = [row["num_edges"] for row in rows]
    assert edge_counts == sorted(edge_counts)
    assert result["r_squared"] > 0.8
    # Runtime grows no faster than ~quadratically even at the largest step
    # (guards against an accidental O(n^2) implementation).
    first, last = rows[0], rows[-1]
    edge_ratio = last["num_edges"] / first["num_edges"]
    time_ratio = last["seconds"] / max(first["seconds"], 1e-9)
    assert time_ratio < edge_ratio ** 1.7


@pytest.mark.slow
def test_fig11_measured_parallel(benchmark):
    result = run_once(benchmark, lambda: fig11_scalability.run_parallel(
        scale=4.0, num_parts=8, worker_counts=(2, 4), iterations=30))
    save_result("fig11_measured_parallel",
                fig11_scalability.format_parallel_result(result),
                fig11_scalability.format_parallel_timings(result))

    rows = result["rows"]
    # Hard guarantee regardless of core count: every worker count
    # reproduces the serial partition bit for bit.
    assert all(row["identical"] for row in rows)
    # Wall-clock claims only make sense with real hardware parallelism AND a
    # cheap pool start: under the spawn start method (macOS/Windows default)
    # each worker re-imports numpy/scipy inside the timed region, which
    # dwarfs the serial time at this scale.  With fork + >= 4 cores the
    # widest configuration must not be slower than ~1.5x serial (a loose
    # bound — per-level dispatch overhead on small graphs is real).
    if (os.cpu_count() or 1) >= 4 and multiprocessing.get_start_method() == "fork":
        serial = rows[0]["seconds"]
        widest = rows[-1]["seconds"]
        assert widest < 1.5 * serial
