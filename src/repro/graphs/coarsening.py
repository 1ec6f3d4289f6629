"""Heavy-edge-matching coarsening of the METIS-like baseline.

Coarsening (:func:`coarsen`) is the classic multilevel construction: starting
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

import numpy as np
from scipy import sparse

__all__ = [
    "CoarseLevel",
    "coarsen",
    "contract",
    "heavy_edge_matching",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of a coarsening (see :func:`coarsen`).

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


#: Coarsening stops when a contraction keeps at least this share of the
#: vertices (stars and other matching-hostile shapes).
_STALL_FRACTION = 0.95


def coarsen(adjacency: sparse.csr_matrix, vertex_weights: np.ndarray, *,
            coarsest_size: int, rng: np.random.Generator) -> list[CoarseLevel]:
    """Coarsen until at most ``coarsest_size`` vertices remain.

    Returns the levels, finest (the input) first.  ``adjacency`` is a
    weighted symmetric CSR matrix.  Each level is a
    :func:`heavy_edge_matching` contracted by :func:`contract`.
    Coarsening stops early when a contraction removes less than 5 % of
    the vertices; the stalled contraction is still run (and discarded),
    so ``rng`` advances as the METIS-like baseline has always advanced
    it.  A pure function of the inputs and the RNG state.
    """
    if coarsest_size < 1:
        raise ValueError("coarsest_size must be at least 1")
    adjacency = adjacency.tocsr()
    vertex_weights = np.atleast_2d(np.asarray(vertex_weights, dtype=np.float64))
    if vertex_weights.shape[1] != adjacency.shape[0]:
        raise ValueError("vertex_weights must have one column per vertex")

    levels = [CoarseLevel(adjacency=adjacency, vertex_weights=vertex_weights,
                          fine_to_coarse=None)]
    while levels[-1].num_vertices > coarsest_size:
        current = levels[-1]
        pairing = heavy_edge_matching(current.adjacency, rng)
        coarse = contract(current.adjacency, current.vertex_weights, pairing)
        if coarse.num_vertices >= _STALL_FRACTION * current.num_vertices:
            break  # coarsening stalled (e.g. star graphs)
        levels.append(coarse)
    return levels
