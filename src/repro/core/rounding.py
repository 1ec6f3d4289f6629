"""Rounding of the fractional solution and balance repair (§2, §3.1).

The relaxed solution ``x ∈ [-1, 1]ⁿ`` is converted into a 2-way partition by
independent randomized rounding: vertex ``i`` joins part ``V₁`` with
probability ``(x_i + 1) / 2``.  The expected number of uncut edges equals
the relaxed objective, and concentration keeps the balance constraints
approximately satisfied with high probability.  Because "approximately" can
still exceed the user's ``ε`` on small graphs, an optional greedy repair
pass flips the cheapest vertices between parts while a single flip lowers
the total balance violation.  It stops when no single flip does, so it can
end outside ``ε``, for instance when one dimension is within its band and
another is not.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph, csr_matvec

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


def _weight_classes(weights: np.ndarray, sides: np.ndarray, movable_ids: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``movable_ids`` by weight column.

    Returns the class of every vertex (the vertices that may not move are
    in an extra class, one past the last), the ``(d, classes)`` weight
    column of each class, and the ``(2, classes)`` count of movable
    vertices per (side, class), side 0 being −1 and side 1 being +1.
    """
    columns = weights if movable_ids.size == sides.size else weights[:, movable_ids]
    order = np.lexsort(columns[::-1])
    columns = columns[:, order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    num_classes = int(np.count_nonzero(starts))
    vertex_class = np.full(sides.size, num_classes, dtype=np.int64)
    vertex_class[movable_ids[order]] = np.cumsum(starts) - 1
    sizes = np.diff(np.append(np.flatnonzero(starts), order.size))
    plus = np.bincount(vertex_class[movable_ids[sides[movable_ids] > 0]],
                       minlength=num_classes)
    return (vertex_class, np.ascontiguousarray(columns[:, starts]),
            np.stack([sizes - plus, plus]))


def balance_repair(graph: Graph, sides: np.ndarray, weights: np.ndarray,
                   epsilon: float, center: np.ndarray | None = None,
                   max_moves: int | None = None,
                   movable: np.ndarray | None = None) -> np.ndarray:
    """Greedily flip vertices while a single flip lowers the balance violation.

    The balance constraint is ``|⟨w^(j), sides⟩ − center_j| ≤ ε Σ_i w^(j)_i``
    (``center`` defaults to zero, i.e. an even split; recursive partitioning
    uses a shifted center for uneven target fractions).

    Each move flips one vertex from the overloaded side of the most
    violated dimension.  Among the vertices that most reduce the *total*
    normalized violation across all dimensions, the one that hurts edge
    locality the least (highest cut gain, then lowest id) is chosen.
    Because every accepted move strictly decreases the total violation,
    the pass cannot oscillate.  It stops when the partition is ε-balanced,
    when no single flip lowers the total violation (so it can end outside
    ε), or after ``max_moves`` moves (default ``n``).

    ``movable`` optionally masks the vertices the repair may flip — a
    warm-started bisection confines moves to the vertices it left free.  ``None`` (the default) leaves every vertex movable,
    which is bit-identical to the historical behaviour.

    Cost.  Sides that already meet ε are returned before any neighbour
    sum is taken.  Otherwise the sums are one mat-vec on the graph's own
    CSR, and the movable vertices are grouped by weight column (one
    ``np.lexsort`` over the d rows).  A flip changes the balance by the
    flipped vertex's column only, so a move computes the violation once per
    class present on the donor side, then takes the highest-gain donor-side
    vertex of the near-best classes: the vertex a scan of every donor-side
    vertex's violation would pick.  With real-valued rows (the d = 3 and
    d = 4 standard weights) most classes hold one vertex, and a move costs
    about what that scan would.
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

    totals = weights.sum(axis=1)
    slack = epsilon * totals
    scale = np.maximum(totals, 1e-12)
    center = np.zeros_like(totals) if center is None else np.asarray(center, dtype=np.float64)
    sums = weights @ sides - center
    excess = np.maximum(np.abs(sums) - slack, 0.0) / scale
    if float(excess.sum()) <= 1e-12:
        return sides
    if max_moves is None:
        max_moves = n

    # neighbor_sums[i] = Σ_{j ~ i} sides[j], so sides[i] · neighbor_sums[i]
    # = deg_same − deg_other and gains[i] = −sides[i] · neighbor_sums[i] is
    # the cut *decrease* of flipping vertex i.  Both hold small integers in
    # float64, so updating them per flip is exact.
    neighbor_sums = csr_matvec(graph.indptr, graph.indices, np.ones(graph.indices.size),
                               sides, (n, n))
    gains = -(sides * neighbor_sums)
    movable_ids = np.arange(n) if movable is None else np.flatnonzero(movable)
    vertex_class, class_columns, counts = _weight_classes(weights, sides, movable_ids)

    for _ in range(max_moves):
        current_violation = float(excess.sum())
        if current_violation <= 1e-12:
            break
        donor_side = 1.0 if sums[int(np.argmax(excess))] > 0 else -1.0
        donor = int(donor_side > 0)
        candidates = np.flatnonzero(counts[donor])
        if candidates.size == 0:
            break

        # Violation after flipping each candidate (vectorized over candidates).
        new_sums = sums[:, None] - 2.0 * donor_side * class_columns[:, candidates]
        new_excess = np.maximum(np.abs(new_sums) - slack[:, None], 0.0)
        new_violation = (new_excess / scale[:, None]).sum(axis=0)
        best_violation = new_violation.min()
        if best_violation >= current_violation - 1e-15:
            break  # no single flip improves the balance any further

        # Among the (near-)best balance improvements pick the cheapest
        # cut-wise: the donor-side vertices of the near-best classes,
        # ascending, then the highest gain among them.
        in_near_best = np.zeros(counts.shape[1] + 1, dtype=bool)
        in_near_best[candidates[new_violation <= best_violation + 1e-12]] = True
        near_best = np.flatnonzero(in_near_best[vertex_class] & (sides == donor_side))
        best = near_best[np.argmax(gains[near_best])]

        # Flip the vertex, then refresh the weighted sums and the gains of
        # the flipped vertex and its neighbors (only they are affected).
        sides[best] = -donor_side
        sums -= 2.0 * donor_side * weights[:, best]
        neighbors = graph.neighbors(best)
        neighbor_sums[neighbors] -= 2.0 * donor_side
        gains[neighbors] = -(sides[neighbors] * neighbor_sums[neighbors])
        gains[best] = -(sides[best] * neighbor_sums[best])
        counts[donor, vertex_class[best]] -= 1
        counts[1 - donor, vertex_class[best]] += 1
        excess = np.maximum(np.abs(sums) - slack, 0.0) / scale
    return sides
