"""Table 3 (Appendix C.1) — GD vs METIS for d ∈ {2, 3, 4} balance dimensions.

The paper compares edge locality, maximum imbalance, memory usage and
running time on LiveJournal, Orkut and sx-stackoverflow.  The weight stacks
are: d = 2 — vertices + degrees; d = 3 — + sum of neighbor degrees; d = 4 —
+ PageRank.  Expected shape: for d = 2 both methods deliver good balance
and comparable locality; for d ≥ 3 METIS cannot keep all constraints
balanced (imbalances of several to tens of percent) while GD stays below
roughly 1%, usually with competitive or better locality and lower memory.
"""

from __future__ import annotations

from ..baselines import MetisLikePartitioner
from ..graphs import standard_weights
from ..partition.metrics import edge_locality, max_imbalance
from .common import DEFAULT_SCALE, make_gd, measure_resources, public_graph
from .reporting import format_table

__all__ = ["run", "format_result", "format_timings"]

DEFAULT_GRAPHS = ("livejournal", "orkut", "stackoverflow")
DIMENSIONS = (2, 3, 4)


def run(scale: float = DEFAULT_SCALE, seed: int = 0, num_parts: int = 2,
        gd_iterations: int = 60, epsilon: float = 0.05,
        graphs: tuple[str, ...] = DEFAULT_GRAPHS,
        dimensions: tuple[int, ...] = DIMENSIONS) -> list[dict]:
    """One row per (dimension count, graph, algorithm)."""
    rows: list[dict] = []
    for graph_name in graphs:
        graph = public_graph(graph_name, scale=scale, seed=seed)
        for num_dimensions in dimensions:
            weights = standard_weights(graph, num_dimensions)
            algorithms = {
                "GD": make_gd(epsilon=epsilon, iterations=gd_iterations, seed=seed),
                "METIS": MetisLikePartitioner(seed=seed),
            }
            for name, partitioner in algorithms.items():
                partition, usage = measure_resources(
                    lambda p=partitioner: p.partition(graph, weights, num_parts))
                rows.append({
                    "d": num_dimensions,
                    "graph": graph_name,
                    "algorithm": name,
                    "edge_locality_pct": edge_locality(partition),
                    "max_imbalance_pct": 100.0 * max_imbalance(partition, weights),
                    "memory_mb": usage.peak_memory_mb,
                    "seconds": usage.seconds,
                })
    return rows


def format_result(rows: list[dict]) -> str:
    """Quality per row; memory and time are in :func:`format_timings`."""
    headers = ["d", "graph", "algorithm", "locality_%", "max_imbalance_%"]
    table_rows = [[row["d"], row["graph"], row["algorithm"], row["edge_locality_pct"],
                   row["max_imbalance_pct"]]
                  for row in rows]
    return format_table(headers, table_rows,
                        title="Table 3: GD vs METIS under multi-dimensional constraints")


def format_timings(rows: list[dict]) -> str:
    """Measured peak memory and wall-clock time per row."""
    headers = ["d", "graph", "algorithm", "memory_MB", "seconds"]
    table_rows = [[row["d"], row["graph"], row["algorithm"], row["memory_mb"],
                   row["seconds"]]
                  for row in rows]
    return format_table(headers, table_rows, title="Table 3: memory and time")
