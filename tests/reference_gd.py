"""A deliberately simple transcription of Algorithm 1, for tests to check
the solver against.

Full-size arrays and a plain scipy mat-vec; no vertex fixing, no caching,
no free-vertex system, no fused kernels.  Each iteration adds noise (first
iteration only), takes a gradient step whose length adapts to the target
``2 √n / I``, and projects with convergent alternating projections onto
the balance bands and the box.  The fractional result goes through the
library's ``randomized_round`` and ``balance_repair``.

Its runs are not bit-comparable to the solver's; tests compare outcomes:
feasibility, ε-balance in every dimension, and locality within a stated
margin.
"""

from __future__ import annotations

import numpy as np

from repro.core import balance_repair, randomized_round
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

    sides = balance_repair(graph, randomized_round(x, rng), weights, epsilon)
    return Partition.from_sides(graph, sides)
