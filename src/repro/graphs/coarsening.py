"""Heavy-edge-matching coarsening of the METIS-like baseline.

A *coarsening hierarchy* is the classic multilevel construction: starting
from the input graph, repeatedly match vertices along heavy edges and
contract each matched pair into one coarse vertex, summing vertex weight
vectors per balance dimension and accumulating the edge weights of
collapsed parallel edges.  The result is a stack of successively smaller
weighted graphs whose per-dimension vertex-weight totals are identical at
every level — which is what lets a balance-constrained solve on a coarse
level transfer to the finer levels unchanged.

The matching rule is ``heavy_edge_matching``, the sequential
random-visit-order rule used by METIS: visit vertices in a seeded random
permutation and match each unmatched vertex with its heaviest unmatched
neighbor.

Contraction (:func:`contract`) is fully vectorized; its coarse
vertex numbering reproduces the first-visit order of the historical
sequential loop bit for bit (see the function docstring), so routing the
baseline through it is output-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .graph import Graph

__all__ = [
    "CoarseLevel",
    "CoarseningHierarchy",
    "contract",
    "heavy_edge_matching",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of a coarsening hierarchy.

    Attributes
    ----------
    adjacency:
        Weighted symmetric adjacency with zero diagonal.  Level 0 holds
        the input graph's (unit-weight) adjacency; coarser levels
        accumulate the weights of collapsed parallel edges.
    vertex_weights:
        ``(d, n_level)`` per-dimension vertex weights; column sums are
        identical across levels.
    fine_to_coarse:
        For level ``l > 0``, the length ``n_{l-1}`` array mapping each
        vertex of the next finer level to its coarse vertex.  ``None``
        for the finest level.
    """

    adjacency: sparse.csr_matrix
    vertex_weights: np.ndarray
    fine_to_coarse: np.ndarray | None

    @property
    def num_vertices(self) -> int:
        return int(self.adjacency.shape[0])


def heavy_edge_matching(adjacency: sparse.csr_matrix,
                        rng: np.random.Generator) -> np.ndarray:
    """Sequential heavy-edge matching (random visit order).

    Returns for every vertex its match — possibly itself for vertices
    left unmatched.  This is the rule the METIS-like baseline has always
    used; both the visit order (``rng.permutation``) and the
    heaviest-first tie-breaking are preserved exactly, so partitioners
    built on it remain seed-stable across the extraction of this module.
    """
    n = adjacency.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    for vertex in rng.permutation(n):
        if match[vertex] != -1:
            continue
        start, end = indptr[vertex], indptr[vertex + 1]
        best_neighbor, best_weight = -1, -np.inf
        for neighbor, weight in zip(indices[start:end], data[start:end]):
            if neighbor != vertex and match[neighbor] == -1 and weight > best_weight:
                best_neighbor, best_weight = neighbor, weight
        if best_neighbor >= 0:
            match[vertex] = best_neighbor
            match[best_neighbor] = vertex
        else:
            match[vertex] = vertex
    return match


def contract(adjacency: sparse.csr_matrix, vertex_weights: np.ndarray,
             matching: np.ndarray) -> CoarseLevel:
    """Contract matched vertex pairs into one coarse level.

    Coarse vertices are numbered by the *first-visit order* of a
    ``for vertex in range(n)`` scan — a pair's id is the rank of its
    smaller endpoint among all pair representatives ``min(v, match[v])``.
    That is exactly the numbering the historical sequential loop in the
    METIS-like baseline produced, computed here without the loop
    (``np.unique`` returns sorted representatives, and its inverse is the
    rank), so the contracted adjacency, the aggregated vertex weights and
    every downstream number are bit-identical to the pre-refactor code.
    """
    n = adjacency.shape[0]
    representatives = np.minimum(np.arange(n, dtype=np.int64), matching)
    _, fine_to_coarse = np.unique(representatives, return_inverse=True)
    fine_to_coarse = fine_to_coarse.astype(np.int64)
    num_coarse = int(fine_to_coarse.max()) + 1 if n else 0

    # Scatter contraction: relabel every entry to its coarse coordinates,
    # drop the entries that collapse onto the diagonal, and let the
    # COO→CSR conversion sum the duplicates.  Equivalent to the
    # historical ``Pᵀ A P`` sparse triple product at a fraction of its
    # cost, and bit-identical for this package's hierarchies: the edge
    # data are integral multiplicities (unit finest edges, sums of
    # sums), whose float64 accumulation is exact in any order, and each
    # coarse vertex aggregates at most two fine weights, whose single
    # addition is order-free.
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adjacency.indptr))
    coarse_rows = fine_to_coarse[rows]
    coarse_cols = fine_to_coarse[adjacency.indices]
    off_diagonal = coarse_rows != coarse_cols
    coarse_adjacency = sparse.csr_matrix(
        (adjacency.data[off_diagonal],
         (coarse_rows[off_diagonal], coarse_cols[off_diagonal])),
        shape=(num_coarse, num_coarse))
    coarse_weights = np.stack([
        np.bincount(fine_to_coarse, weights=row, minlength=num_coarse)
        for row in np.atleast_2d(vertex_weights)])
    return CoarseLevel(adjacency=coarse_adjacency,
                       vertex_weights=coarse_weights,
                       fine_to_coarse=fine_to_coarse)


#: Matching strategies accepted by :meth:`CoarseningHierarchy.build`.
MATCHINGS: dict[str, Callable[[sparse.csr_matrix, np.random.Generator], np.ndarray]] = {
    "sequential": heavy_edge_matching,
}


class CoarseningHierarchy:
    """A stack of coarsened graphs plus the mappings between them.

    Level 0 is the input graph; level ``num_levels - 1`` is the coarsest.
    Built by :meth:`build`; the levels are immutable :class:`CoarseLevel`
    records.  Construction is a pure function of the inputs and the RNG
    state, so a fixed seed yields a bit-identical hierarchy.
    """

    def __init__(self, levels: Sequence[CoarseLevel], graph: Graph | None = None):
        self.levels = list(levels)
        if not self.levels:
            raise ValueError("a hierarchy needs at least one level")
        self._finest_graph = graph

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, graph_or_adjacency: Graph | sparse.csr_matrix,
              vertex_weights: np.ndarray, *, coarsest_size: int = 128,
              rng: np.random.Generator | int | None = None,
              matching: str = "sequential",
              stall_fraction: float = 0.95) -> "CoarseningHierarchy":
        """Coarsen until at most ``coarsest_size`` vertices remain.

        ``graph_or_adjacency`` may be a :class:`Graph` (whose unit-weight
        adjacency seeds the edge weights) or a weighted symmetric scipy
        CSR matrix.  ``matching`` names the per-level pair matching (see
        :data:`MATCHINGS`).  Coarsening stops early when a contraction
        removes less than ``1 - stall_fraction`` of the vertices (stars
        and other matching-hostile shapes), mirroring the METIS-like
        baseline's stall rule — including running (and discarding) the
        stalled contraction, so a shared RNG advances identically.
        """
        if coarsest_size < 1:
            raise ValueError("coarsest_size must be at least 1")
        if matching not in MATCHINGS:
            raise ValueError(f"matching must be one of {sorted(MATCHINGS)}, "
                             f"got {matching!r}")
        if isinstance(graph_or_adjacency, Graph):
            finest_graph: Graph | None = graph_or_adjacency
            adjacency = graph_or_adjacency.adjacency_matrix()
        else:
            finest_graph = None
            adjacency = graph_or_adjacency.tocsr()
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        vertex_weights = np.atleast_2d(np.asarray(vertex_weights, dtype=np.float64))
        if vertex_weights.shape[1] != adjacency.shape[0]:
            raise ValueError("vertex_weights must have one column per vertex")

        levels = [CoarseLevel(adjacency=adjacency, vertex_weights=vertex_weights,
                              fine_to_coarse=None)]
        while levels[-1].num_vertices > coarsest_size:
            current = levels[-1]
            pairing = MATCHINGS[matching](current.adjacency, rng)
            coarse = contract(current.adjacency, current.vertex_weights, pairing)
            if coarse.num_vertices >= stall_fraction * current.num_vertices:
                break  # coarsening stalled (e.g. star graphs)
            levels.append(coarse)
        return cls(levels, graph=finest_graph)

    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def sizes(self) -> list[int]:
        """Vertex count of every level, finest first."""
        return [level.num_vertices for level in self.levels]

    def graph_at(self, level: int) -> Graph:
        """The level's graph as an (unweighted) CSR :class:`Graph`.

        The finest level returns the original input graph when the
        hierarchy was built from one; coarser levels materialize the
        adjacency *pattern* (collapsed edge weights live on
        ``levels[level].adjacency``).
        """
        if level == 0 and self._finest_graph is not None:
            return self._finest_graph
        adjacency = self.levels[level].adjacency
        upper = sparse.triu(adjacency, k=1).tocoo()
        edges = np.column_stack([upper.row, upper.col]).astype(np.int64)
        return Graph.from_edges(int(adjacency.shape[0]), edges)

    def weights_at(self, level: int) -> np.ndarray:
        return self.levels[level].vertex_weights

    def adjacency_at(self, level: int) -> sparse.csr_matrix:
        return self.levels[level].adjacency

    # ------------------------------------------------------------------ #
    def prolongate(self, values: np.ndarray, coarse_level: int) -> np.ndarray:
        """Map per-vertex ``values`` from ``coarse_level`` one level finer.

        Each fine vertex receives its coarse parent's value:
        ``fine_values = values[fine_to_coarse]``.  Works for fractional
        iterates, boolean masks, and partition labels alike; weighted
        sums ``⟨w, x⟩`` are preserved because the parent's weight is the
        sum of its children's.
        """
        if coarse_level < 1 or coarse_level >= self.num_levels:
            raise ValueError("coarse_level must index a non-finest level")
        mapping = self.levels[coarse_level].fine_to_coarse
        return np.asarray(values)[mapping]

    def restrict(self, values: np.ndarray, fine_level: int) -> np.ndarray:
        """Map per-vertex ``values`` from ``fine_level`` one level coarser.

        Each coarse vertex takes the value of its first (lowest-id) fine
        member.  For values that are constant within every matched pair —
        partition labels produced by :meth:`prolongate`, in particular —
        this inverts prolongation exactly:
        ``restrict(prolongate(x, l), l - 1) == x``.
        """
        if fine_level < 0 or fine_level >= self.num_levels - 1:
            raise ValueError("fine_level must index a non-coarsest level")
        mapping = self.levels[fine_level + 1].fine_to_coarse
        num_coarse = self.levels[fine_level + 1].num_vertices
        representatives = np.zeros(num_coarse, dtype=np.int64)
        representatives[mapping[::-1]] = np.arange(mapping.size - 1, -1, -1)
        return np.asarray(values)[representatives]
