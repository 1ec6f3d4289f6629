"""Figure 7 — speedup of Giraph jobs relative to Hash partitioning.

The paper measures the total runtime of Page Rank (PR), Connected
Components (CC), Mutual Friends (MF) and Hypergraph Clustering (HC) in two
configurations — *small* (FB-80B, 16 workers) and *large* (FB-400B,
128 workers) — when the graph is partitioned by GD balancing only vertices,
only edges, or both.  The key finding to reproduce: one-dimensional
balancing sometimes causes regressions (negative speedups), while
vertex-edge partitioning always improves over Hash (roughly 10--30%).
"""

from __future__ import annotations

import time

from ..core import ExecutionConfig
from ..distributed import (
    ConnectedComponents,
    GiraphCluster,
    HypergraphClustering,
    MutualFriends,
    PageRank,
)
from ..graphs import fb_like
from .common import DEFAULT_SCALE, PARTITIONING_MODES, hash_placement, partition_by_mode
from .reporting import format_table

__all__ = ["run", "format_result", "format_timings", "APPLICATIONS", "CONFIGURATIONS"]

APPLICATIONS = {
    "PR": lambda: PageRank(supersteps=10),
    "CC": lambda: ConnectedComponents(),
    "MF": lambda: MutualFriends(rounds=2),
    "HC": lambda: HypergraphClustering(supersteps=5),
}

#: (label, FB preset, number of workers) for the two cluster configurations,
#: matching the paper's FB-80B + 16 workers and FB-400B + 128 workers.
CONFIGURATIONS = (
    ("small", 80, 16),
    ("large", 400, 128),
)


def run(scale: float = DEFAULT_SCALE, seed: int = 0, gd_iterations: int = 40,
        applications: tuple[str, ...] = ("PR", "CC", "MF", "HC"),
        configurations=CONFIGURATIONS,
        execution: ExecutionConfig = ExecutionConfig()) -> list[dict]:
    """One row per (application, configuration, partitioning mode).

    The job speedups come from the simulated cluster's cost model; next to
    them every row carries ``partition_seconds`` — the *measured* wall-clock
    time GD spent producing that placement.  ``execution`` selects the
    recursive-bisection backend — ``ExecutionConfig(parallelism="shm")``
    is the zero-copy shared-memory process pool — so the column doubles
    as the experiment's parallel mode (the placements, and hence the
    cost-model numbers, are backend-independent by the
    deterministic-seeding contract).
    """
    rows: list[dict] = []
    for label, fb_billions, num_workers in configurations:
        graph = fb_like(fb_billions, scale=scale, seed=seed)
        cluster = GiraphCluster(num_workers=num_workers)
        baseline_placement = hash_placement(graph, num_workers, seed=seed)
        placements: dict[str, object] = {}
        partition_seconds: dict[str, float] = {}
        for mode in PARTITIONING_MODES:
            start = time.perf_counter()
            placements[mode] = partition_by_mode(
                graph, mode, num_workers, iterations=gd_iterations, seed=seed,
                execution=execution)
            partition_seconds[mode] = time.perf_counter() - start
        for app_name in applications:
            program = APPLICATIONS[app_name]()
            baseline = cluster.run_job(graph, baseline_placement, program,
                                       placement_name="hash")
            for mode, placement in placements.items():
                report = cluster.run_job(graph, placement, program, placement_name=mode)
                rows.append({
                    "application": app_name,
                    "configuration": label,
                    "num_workers": num_workers,
                    "mode": mode,
                    "speedup_pct": cluster.speedup_over(baseline, report),
                    "runtime": report.total_runtime,
                    "hash_runtime": baseline.total_runtime,
                    "edge_locality_pct": report.edge_locality_pct,
                    "partition_seconds": partition_seconds[mode],
                })
    return rows


def format_result(rows: list[dict]) -> str:
    """The speedup table; the measured partitioning times are in
    :func:`format_timings`."""
    headers = ["app", "config", "workers", "mode", "speedup_%", "locality_%"]
    table_rows = [[row["application"], row["configuration"], row["num_workers"],
                   row["mode"], row["speedup_pct"], row["edge_locality_pct"]]
                  for row in rows]
    return format_table(headers, table_rows,
                        title="Figure 7: speedup over Hash partitioning "
                              "(positive = faster than Hash)")


def format_timings(rows: list[dict]) -> str:
    """Measured GD partitioning time per (configuration, mode)."""
    seconds = {(row["configuration"], row["mode"]): row["partition_seconds"]
               for row in rows}
    return format_table(["config", "mode", "partition_s"],
                        [[config, mode, value]
                         for (config, mode), value in seconds.items()],
                        title="Figure 7: GD partitioning time")
