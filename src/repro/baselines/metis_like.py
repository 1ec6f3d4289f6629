"""Multilevel multi-constraint partitioner in the style of METIS [23, 24].

The paper compares GD against METIS's multi-constraint mode (Table 3).
METIS itself is a C library that is not available here, so this module
implements the same algorithmic recipe from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph until
   it is small, summing vertex weight vectors and accumulating edge
   weights of collapsed parallel edges;
2. **Initial partitioning** — greedy region growing on the coarsest graph
   (several random seeds, best cut kept), targeting balance on the first
   weight dimension;
3. **Uncoarsening with refinement** — the partition is projected back level
   by level and improved by Fiduccia--Mattheyses-style boundary moves that
   are only accepted when they respect the (multi-constraint) balance
   tolerance or improve the worst imbalance.

``k``-way partitions are produced by recursive bisection, as METIS's
``pmetis`` does.  Like the real METIS, the method delivers excellent edge
locality for one or two constraints but struggles to keep many unrelated
constraints balanced simultaneously — the behaviour Table 3 reports.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graphs.coarsening import CoarseLevel, coarsen
from ..graphs.graph import Graph
from ..partition.partition import Partition
from .base import Partitioner

__all__ = ["MetisLikePartitioner"]


class MetisLikePartitioner(Partitioner):
    """Multilevel heavy-edge-matching + FM refinement with multiple constraints."""

    name = "METIS"

    def __init__(self, allowed_imbalance: float = 0.005, coarsest_size: int = 64,
                 refinement_passes: int = 6, initial_seeds: int = 4, seed: int = 0):
        if allowed_imbalance <= 0:
            raise ValueError("allowed_imbalance must be positive")
        if coarsest_size < 8:
            raise ValueError("coarsest_size must be at least 8")
        self._allowed_imbalance = allowed_imbalance
        self._coarsest_size = coarsest_size
        self._refinement_passes = refinement_passes
        self._initial_seeds = initial_seeds
        self._seed = seed

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def partition(self, graph: Graph, weights: np.ndarray, num_parts: int = 2) -> Partition:
        weights, num_parts = self._validate(graph, weights, num_parts)
        if graph.num_vertices == 0:
            return Partition(graph=graph, assignment=np.empty(0, dtype=np.int64),
                             num_parts=num_parts)
        assignment = np.zeros(graph.num_vertices, dtype=np.int64)
        rng = np.random.default_rng(self._seed)
        self._recursive_bisect(graph, weights, np.arange(graph.num_vertices),
                               num_parts, 0, assignment, rng)
        return Partition(graph=graph, assignment=assignment, num_parts=num_parts)

    # ------------------------------------------------------------------ #
    # Recursive k-way driver
    # ------------------------------------------------------------------ #
    def _recursive_bisect(self, graph: Graph, weights: np.ndarray,
                          vertex_ids: np.ndarray, num_parts: int, first_part: int,
                          assignment: np.ndarray, rng: np.random.Generator) -> None:
        if num_parts == 1 or vertex_ids.size == 0:
            assignment[vertex_ids] = first_part
            return
        left_parts = (num_parts + 1) // 2
        fraction = left_parts / num_parts

        sub_adjacency = graph.subgraph(vertex_ids)[0].adjacency_matrix()
        sub_weights = weights[:, vertex_ids]
        sides = self._multilevel_bisect(sub_adjacency, sub_weights, fraction, rng)

        # Each child is extracted from the input graph at the next level.
        left_ids = vertex_ids[sides == 0]
        right_ids = vertex_ids[sides == 1]
        self._recursive_bisect(graph, weights, left_ids, left_parts,
                               first_part, assignment, rng)
        self._recursive_bisect(graph, weights, right_ids, num_parts - left_parts,
                               first_part + left_parts, assignment, rng)

    # ------------------------------------------------------------------ #
    # Multilevel bisection
    # ------------------------------------------------------------------ #
    def _multilevel_bisect(self, adjacency: sparse.csr_matrix, weights: np.ndarray,
                           fraction: float, rng: np.random.Generator) -> np.ndarray:
        levels = self._coarsen(adjacency, weights, rng)
        coarsest = levels[-1]
        sides = self._initial_bisection(coarsest, fraction, rng)
        sides = self._refine(coarsest, sides, fraction)
        for level_index in range(len(levels) - 2, -1, -1):
            finer = levels[level_index]
            mapping = levels[level_index + 1].fine_to_coarse
            sides = sides[mapping]
            sides = self._refine(finer, sides, fraction)
        return sides

    def _coarsen(self, adjacency: sparse.csr_matrix, weights: np.ndarray,
                 rng: np.random.Generator) -> list[CoarseLevel]:
        # The shared coarsening reproduces this class's historical private
        # loop exactly — same sequential matching (and hence the same rng
        # consumption), same stall rule, same contraction numbering — so
        # baseline outputs stay bit-stable per seed.
        return coarsen(adjacency, weights, coarsest_size=self._coarsest_size, rng=rng)

    # ------------------------------------------------------------------ #
    # Initial partitioning and refinement
    # ------------------------------------------------------------------ #
    def _initial_bisection(self, level: CoarseLevel, fraction: float,
                           rng: np.random.Generator) -> np.ndarray:
        """Greedy region growing, best of several seeds (cut-wise)."""
        n = level.adjacency.shape[0]
        primary = level.vertex_weights[0]
        target = fraction * primary.sum()
        best_sides, best_cut = None, np.inf
        for _ in range(self._initial_seeds):
            sides = np.ones(n, dtype=np.int64)
            seed_vertex = int(rng.integers(n))
            grown_weight = 0.0
            frontier_score = np.zeros(n)
            in_region = np.zeros(n, dtype=bool)
            candidate = seed_vertex
            while grown_weight < target:
                in_region[candidate] = True
                sides[candidate] = 0
                grown_weight += primary[candidate]
                row = level.adjacency.getrow(candidate)
                frontier_score[row.indices] += row.data
                frontier_score[in_region] = -np.inf
                next_candidate = int(np.argmax(frontier_score))
                if frontier_score[next_candidate] == -np.inf:
                    remaining = np.flatnonzero(~in_region)
                    if remaining.size == 0:
                        break
                    next_candidate = int(rng.choice(remaining))
                candidate = next_candidate
            cut = self._cut_weight(level.adjacency, sides)
            if cut < best_cut:
                best_cut, best_sides = cut, sides
        return best_sides if best_sides is not None else np.zeros(n, dtype=np.int64)

    @staticmethod
    def _cut_weight(adjacency: sparse.csr_matrix, sides: np.ndarray) -> float:
        coo = adjacency.tocoo()
        crossing = sides[coo.row] != sides[coo.col]
        return float(coo.data[crossing].sum()) / 2.0

    def _refine(self, level: CoarseLevel, sides: np.ndarray, fraction: float) -> np.ndarray:
        """FM-style boundary refinement with multi-constraint balance checks.

        Each pass first runs a *balance phase* (moves that reduce the worst
        per-dimension overload, mirroring METIS's balancing sweep) and then
        a *cut phase* (positive-gain moves accepted only when they respect
        the balance tolerance).
        """
        adjacency = level.adjacency
        weights = level.vertex_weights
        sides = sides.copy()
        targets = np.vstack([weights.sum(axis=1) * fraction,
                             weights.sum(axis=1) * (1.0 - fraction)]).T  # (d, 2)
        part_weights = np.vstack([
            np.bincount(sides, weights=row, minlength=2) for row in weights
        ])  # (d, 2)

        self._balance_phase(adjacency, weights, sides, part_weights, targets)
        for _ in range(self._refinement_passes):
            side_indicator = np.where(sides == 0, 1.0, -1.0)
            connectivity = adjacency @ side_indicator
            # gain of moving v to the other side = (other-side edge weight)
            # − (same-side edge weight) = −side_indicator * connectivity.
            gains = -side_indicator * connectivity
            order = np.argsort(gains)[::-1]
            moved_any = False
            for vertex in order:
                if gains[vertex] < 0:
                    break
                source = sides[vertex]
                destination = 1 - source
                if not self._move_allowed(part_weights, targets, weights[:, vertex],
                                          source, destination):
                    continue
                sides[vertex] = destination
                part_weights[:, source] -= weights[:, vertex]
                part_weights[:, destination] += weights[:, vertex]
                moved_any = True
                # Update the gains of the moved vertex and its neighbors.
                row = adjacency.getrow(vertex)
                side_indicator[vertex] = -side_indicator[vertex]
                touched = np.append(row.indices, vertex)
                connectivity[touched] = adjacency[touched] @ side_indicator
                gains[touched] = -side_indicator[touched] * connectivity[touched]
            if not moved_any:
                break
        return sides

    def _balance_phase(self, adjacency: sparse.csr_matrix, weights: np.ndarray,
                       sides: np.ndarray, part_weights: np.ndarray,
                       targets: np.ndarray, max_moves: int | None = None) -> None:
        """Move vertices out of the most overloaded part until within tolerance."""
        n = sides.shape[0]
        if max_moves is None:
            max_moves = n
        tolerance = 1.0 + self._allowed_imbalance
        for _ in range(max_moves):
            normalized = part_weights / np.maximum(targets, 1e-12)
            worst_dim, overloaded = np.unravel_index(int(np.argmax(normalized)),
                                                     normalized.shape)
            if normalized[worst_dim, overloaded] <= tolerance:
                break
            destination = 1 - overloaded
            members = np.flatnonzero(sides == overloaded)
            if members.size == 0:
                break
            side_indicator = np.where(sides == 0, 1.0, -1.0)
            gains = -side_indicator[members] * (adjacency[members] @ side_indicator)
            # Prefer the cheapest (highest-gain) vertex that actually carries
            # weight in the overloaded dimension.
            carries = weights[worst_dim, members] > 0
            pool = members[carries] if carries.any() else members
            pool_gains = gains[carries] if carries.any() else gains
            mover = pool[int(np.argmax(pool_gains))]
            sides[mover] = destination
            part_weights[:, overloaded] -= weights[:, mover]
            part_weights[:, destination] += weights[:, mover]

    def _move_allowed(self, part_weights: np.ndarray, targets: np.ndarray,
                      vertex_weight: np.ndarray, source: int, destination: int) -> bool:
        """Accept a move if it keeps (or restores) the balance tolerance."""
        tolerance = 1.0 + self._allowed_imbalance
        new_destination = part_weights[:, destination] + vertex_weight
        within = np.all(new_destination <= tolerance * targets[:, destination])
        if within:
            return True
        # Also allow moves that reduce the current worst overload.
        current_overload = (part_weights / np.maximum(targets, 1e-12)).max()
        prospective = part_weights.copy()
        prospective[:, source] -= vertex_weight
        prospective[:, destination] += vertex_weight
        prospective_overload = (prospective / np.maximum(targets, 1e-12)).max()
        return prospective_overload < current_overload - 1e-12
