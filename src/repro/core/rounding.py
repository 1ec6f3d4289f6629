"""Rounding of the fractional solution and balance repair (§2, §3.1).

The relaxed solution ``x ∈ [-1, 1]ⁿ`` is converted into a 2-way partition by
independent randomized rounding: vertex ``i`` joins part ``V₁`` with
probability ``(x_i + 1) / 2``.  The expected number of uncut edges equals
the relaxed objective, and concentration keeps the balance constraints
approximately satisfied with high probability.  Because "approximately" can
still exceed the user's ``ε`` on small graphs, an optional greedy repair
pass moves the cheapest vertices between parts until every dimension is
within tolerance.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["randomized_round", "deterministic_round", "balance_repair"]


def randomized_round(x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Independent randomized rounding of ``x`` to a ±1 side vector."""
    x = np.asarray(x, dtype=np.float64)
    rng = rng if rng is not None else np.random.default_rng(0)
    probabilities = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    return np.where(rng.random(x.shape) < probabilities, 1.0, -1.0)


def deterministic_round(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integral side (ties go to +1).

    Used for the per-iteration quality curves: it is deterministic, so the
    convergence plots are reproducible.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, 1.0, -1.0)


def _normalized_violation(sums: np.ndarray, slack: np.ndarray, totals: np.ndarray) -> float:
    """Total constraint violation of the side sums, normalized per dimension."""
    excess = np.maximum(np.abs(sums) - slack, 0.0)
    return float((excess / np.maximum(totals, 1e-12)).sum())


def balance_repair(graph: Graph, sides: np.ndarray, weights: np.ndarray,
                   epsilon: float, center: np.ndarray | None = None,
                   max_moves: int | None = None,
                   movable: np.ndarray | None = None) -> np.ndarray:
    """Greedily flip vertices until every dimension satisfies ε-balance.

    The balance constraint is ``|⟨w^(j), sides⟩ − center_j| ≤ ε Σ_i w^(j)_i``
    (``center`` defaults to zero, i.e. an even split; recursive partitioning
    uses a shifted center for uneven target fractions).

    Each move flips one vertex from the overloaded side of the most
    violated dimension.  Among the vertices that most reduce the *total*
    normalized violation across all dimensions, the one that hurts edge
    locality the least (highest cut gain) is chosen.  Because every
    accepted move strictly decreases the total violation, the pass cannot
    oscillate; it stops when the partition is ε-balanced, when no improving
    move exists, or after ``max_moves`` moves (default ``n``).

    ``movable`` optionally masks the vertices the repair may flip — a
    warm-started bisection confines moves to the vertices it left free.  ``None`` (the default) leaves every vertex movable,
    which is bit-identical to the historical behaviour.
    """
    sides = np.asarray(sides, dtype=np.float64).copy()
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    n = graph.num_vertices
    if n == 0:
        return sides
    if movable is not None:
        movable = np.asarray(movable, dtype=bool)
        if movable.shape != (n,):
            raise ValueError("movable must have one entry per vertex")
    if max_moves is None:
        max_moves = n

    totals = weights.sum(axis=1)
    slack = epsilon * totals
    center = np.zeros_like(totals) if center is None else np.asarray(center, dtype=np.float64)
    sums = weights @ sides - center
    # neighbor_sums[i] = Σ_{j ~ i} sides[j], so sides[i] · neighbor_sums[i]
    # = deg_same − deg_other and gains[i] = −sides[i] · neighbor_sums[i] is
    # the cut *decrease* of flipping vertex i.  Both hold small integers in
    # float64, so updating them per flip is exact.
    neighbor_sums = graph.adjacency_matrix() @ sides
    gains = -(sides * neighbor_sums)

    for _ in range(max_moves):
        current_violation = _normalized_violation(sums, slack, totals)
        if current_violation <= 1e-12:
            break
        excess = np.maximum(np.abs(sums) - slack, 0.0) / np.maximum(totals, 1e-12)
        worst_dim = int(np.argmax(excess))
        donor_side = 1.0 if sums[worst_dim] > 0 else -1.0
        on_donor_side = sides == donor_side
        if movable is not None:
            on_donor_side &= movable
        candidates = np.flatnonzero(on_donor_side)
        if candidates.size == 0:
            break

        # Violation after flipping each candidate (vectorized over candidates).
        new_sums = sums[:, None] - 2.0 * donor_side * weights[:, candidates]
        new_excess = np.maximum(np.abs(new_sums) - slack[:, None], 0.0)
        new_violation = (new_excess / np.maximum(totals[:, None], 1e-12)).sum(axis=0)
        best_violation = new_violation.min()
        if best_violation >= current_violation - 1e-15:
            break  # no single flip improves the balance any further

        # Among the (near-)best balance improvements pick the cheapest cut-wise.
        near_best = candidates[new_violation <= best_violation + 1e-12]
        best = near_best[np.argmax(gains[near_best])]

        # Flip the vertex, then refresh the weighted sums and the gains of
        # the flipped vertex and its neighbors (only they are affected).
        sides[best] = -donor_side
        sums -= 2.0 * donor_side * weights[:, best]
        neighbors = graph.neighbors(best)
        neighbor_sums[neighbors] -= 2.0 * donor_side
        touched = np.append(neighbors, best)
        gains[touched] = -(sides[touched] * neighbor_sums[touched])
    return sides
