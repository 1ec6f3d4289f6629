"""A deliberately simple transcription of Algorithm 1, for tests to check
the solver against.

Full-size arrays and a plain scipy mat-vec; no vertex fixing, no caching,
no free-vertex system, no fused kernels.  Each iteration adds noise (first
iteration only), takes a gradient step whose length adapts to the target
``2 √n / I``, and projects with convergent alternating projections onto
the balance bands and the box.  The fractional result goes through the
library's ``randomized_round`` and this module's
:func:`reference_balance_repair`, so the reference shares no repair code
with the solver.

Its runs are not bit-comparable to the solver's; tests compare outcomes:
feasibility, ε-balance in every dimension, and locality within a stated
margin.

:func:`reference_recursive_bisection` is the k-way variant: the
recursion of §3.3 written depth-first, one library ``gd_bisect`` per
tree node.  It shares the solver's bisections, so the wave scheduler
must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core import GDConfig, gd_bisect, randomized_round, task_seed
from repro.core.recursive import per_level_epsilon
from repro.graphs import Graph
from repro.partition import Partition


def project(point: np.ndarray, weights: np.ndarray, lower: np.ndarray,
            upper: np.ndarray, rounds: int = 500, tolerance: float = 1e-9) -> np.ndarray:
    """A point of ``[-1, 1]ⁿ ∩ {lower ≤ weights @ x ≤ upper}`` near ``point``:
    project onto each violated band, then the box, until nothing is violated."""
    x = np.clip(point, -1.0, 1.0)
    for _ in range(rounds):
        for row, low, high in zip(weights, lower, upper):
            total = row @ x
            if total < low:
                x = x + (low - total) / (row @ row) * row
            elif total > high:
                x = x - (total - high) / (row @ row) * row
        x = np.clip(x, -1.0, 1.0)
        sums = weights @ x
        if np.all(sums >= lower - tolerance) and np.all(sums <= upper + tolerance):
            break
    return x


def reference_balance_repair(graph: Graph, sides: np.ndarray, weights: np.ndarray,
                             epsilon: float, center: np.ndarray | None = None,
                             movable: np.ndarray | None = None,
                             max_moves: int | None = None) -> np.ndarray:
    """The library's ``balance_repair`` transcribed plainly: every vertex's
    cut gain is recomputed from the whole adjacency before each move, and
    every move scans every movable donor-side vertex."""
    sides = np.asarray(sides, dtype=np.float64).copy()
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    adjacency = graph.adjacency_matrix()
    totals = weights.sum(axis=1)
    slack = epsilon * totals
    center = np.zeros_like(totals) if center is None else center
    sums = weights @ sides - center
    for _ in range(graph.num_vertices if max_moves is None else max_moves):
        excess = np.maximum(np.abs(sums) - slack, 0.0) / np.maximum(totals, 1e-12)
        current_violation = float(excess.sum())
        if current_violation <= 1e-12:
            break
        worst_dim = int(np.argmax(excess))
        donor_side = 1.0 if sums[worst_dim] > 0 else -1.0
        on_donor_side = sides == donor_side
        if movable is not None:
            on_donor_side &= movable
        candidates = np.flatnonzero(on_donor_side)
        if candidates.size == 0:
            break
        new_sums = sums[:, None] - 2.0 * donor_side * weights[:, candidates]
        new_excess = np.maximum(np.abs(new_sums) - slack[:, None], 0.0)
        new_violation = (new_excess / np.maximum(totals[:, None], 1e-12)).sum(axis=0)
        best_violation = new_violation.min()
        if best_violation >= current_violation - 1e-15:
            break
        near_best = candidates[new_violation <= best_violation + 1e-12]
        gains = -(sides * (adjacency @ sides))
        best = near_best[np.argmax(gains[near_best])]
        sides[best] = -donor_side
        sums -= 2.0 * donor_side * weights[:, best]
    return sides


def reference_bisect(graph: Graph, weights: np.ndarray, epsilon: float = 0.05,
                     iterations: int = 100, seed: int = 0,
                     step_length_factor: float = 2.0) -> Partition:
    """Split ``graph`` into two ε-balanced halves by Algorithm 1."""
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    n = graph.num_vertices
    adjacency = graph.adjacency_matrix()
    totals = weights.sum(axis=1)
    lower, upper = -epsilon * totals, epsilon * totals
    rng = np.random.default_rng(seed)
    target = step_length_factor * np.sqrt(n) / iterations

    x = np.zeros(n)
    gamma = None
    for iteration in range(iterations):
        z = x + rng.normal(0.0, 1.0 / np.sqrt(n), n) if iteration == 0 else x
        gradient = adjacency @ z
        if gamma is None:
            norm = np.linalg.norm(gradient)
            gamma = target / norm if norm > 0 else 1.0
        new_x = project(z + gamma * gradient, weights, lower, upper)
        step = np.linalg.norm(new_x - x)
        gamma *= float(np.clip(target / step, 0.5, 2.0)) if step > 0 else 2.0
        x = new_x

    sides = reference_balance_repair(graph, randomized_round(x, rng), weights, epsilon)
    return Partition.from_sides(graph, sides)


def reference_recursive_bisection(graph: Graph, weights: np.ndarray, num_parts: int,
                                  epsilon: float, config: GDConfig) -> np.ndarray:
    """Split ``graph`` into ``num_parts`` parts by plain recursion (§3.3).

    Each node bisects its vertex set with target fraction ⌈k'/2⌉/k' and
    the per-level ε, seeded by its recursion-tree coordinate, then
    recurses into the left side (the first ⌈k'/2⌉ parts) and the right.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    _, level_epsilon = per_level_epsilon(num_parts, epsilon)
    assignment = np.zeros(graph.num_vertices, dtype=np.int64)

    def split(ids: np.ndarray, parts: int, first_part: int, depth: int) -> None:
        if parts == 1:
            assignment[ids] = first_part
            return
        if ids.size == 0:
            return
        subgraph, mapping = graph.subgraphs([ids])[0]
        left = (parts + 1) // 2
        sides = gd_bisect(subgraph, weights[:, mapping], level_epsilon,
                          config.with_updates(seed=task_seed(config.seed, depth, first_part)),
                          target_fraction=left / parts).partition.assignment
        split(mapping[sides == 0], left, first_part, depth + 1)
        split(mapping[sides == 1], parts - left, first_part + left, depth + 1)

    split(np.arange(graph.num_vertices), num_parts, 0, 0)
    return assignment
