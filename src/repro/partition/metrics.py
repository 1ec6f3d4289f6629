"""Partition quality metrics used throughout the paper's evaluation.

* **edge locality** — percentage of edges with both endpoints in the same
  part (Figures 5, 6, 8--10, 15--17; higher is better);
* **cut size** — number of edges crossing parts (the complementary view);
* **imbalance** — ``max_i w(V_i) / avg_i w(V_i) − 1`` per weight dimension
  (Figure 4, Table 3; lower is better);
* **epsilon balance** — whether every part's weight is within
  ``(1 ± eps) * w(V) / k`` for every dimension (the MDBGP constraint).
"""

from __future__ import annotations

import numpy as np

from .partition import Partition

__all__ = [
    "cut_size",
    "edge_locality",
    "imbalance",
    "max_imbalance",
    "is_epsilon_balanced",
    "objective_value",
    "quality_summary",
]


def cut_size(partition: Partition) -> int:
    """Number of edges whose endpoints lie in different parts.

    Read off the graph's CSR: the entries whose row and target lie in
    different parts, halved, since each edge is two entries.
    """
    graph, assignment = partition.graph, partition.assignment
    row_parts = np.repeat(assignment, np.diff(graph.indptr))
    return int(np.count_nonzero(row_parts != assignment[graph.indices])) // 2


def edge_locality(partition: Partition) -> float:
    """Percentage (0..100) of edges with both endpoints in the same part.

    An empty graph has locality 100 by convention (nothing is cut).
    """
    total = partition.graph.num_edges
    if total == 0:
        return 100.0
    return 100.0 * (total - cut_size(partition)) / total


def imbalance(partition: Partition, weights: np.ndarray) -> np.ndarray:
    """Per-dimension imbalance ``max_i w(V_i) / avg_i w(V_i) − 1``.

    ``weights`` is ``(d, n)`` or ``(n,)``; the result is a length-``d``
    array (length 1 for a single dimension).
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    part_totals = partition.part_weights(weights)  # (d, k)
    averages = part_totals.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(averages > 0, part_totals.max(axis=1) / averages - 1.0, 0.0)
    return result


def max_imbalance(partition: Partition, weights: np.ndarray) -> float:
    """Maximum imbalance over all weight dimensions."""
    values = imbalance(partition, weights)
    return float(values.max()) if values.size else 0.0


def is_epsilon_balanced(partition: Partition, weights: np.ndarray, epsilon: float) -> bool:
    """Check the MDBGP balance constraint for every part and dimension.

    Requires ``w(j)(V_i)`` within ``(1 ± eps) * w(j)(V) / k`` for all i, j.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    part_totals = partition.part_weights(weights)  # (d, k)
    targets = weights.sum(axis=1, keepdims=True) / partition.num_parts
    lower = (1.0 - epsilon) * targets
    upper = (1.0 + epsilon) * targets
    return bool(np.all((part_totals >= lower - 1e-9) & (part_totals <= upper + 1e-9)))


def objective_value(partition: Partition) -> int:
    """The MDBGP objective: number of uncut edges."""
    return partition.graph.num_edges - cut_size(partition)


def quality_summary(partition: Partition, weights: np.ndarray) -> dict[str, float]:
    """Bundle of the headline metrics, keyed like the paper's tables."""
    return {
        "edge_locality_pct": edge_locality(partition),
        "cut_size": float(cut_size(partition)),
        "max_imbalance_pct": 100.0 * max_imbalance(partition, weights),
        "num_parts": float(partition.num_parts),
    }
