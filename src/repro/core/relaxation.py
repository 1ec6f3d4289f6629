"""Continuous relaxation of the 2-way MDBGP objective (Section 2).

For ``k = 2`` the integer program maximizes ``½ Σ_{(u,v) ∈ E} (x_u x_v + 1)``
over ``x ∈ {-1, 1}ⁿ`` subject to balance constraints.  Dropping the additive
constant, the relaxation maximizes ``f(x) = ½ xᵀAx`` over the convex body
``K = B∞ ∩ ⋂_j S^j_ε`` where ``A`` is the adjacency matrix.

The only operations the optimizer needs are ``f`` and ``∇f = Ax``, both of
which reduce to sparse matrix--vector products.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graphs.graph import Graph

__all__ = ["QuadraticRelaxation"]


class QuadraticRelaxation:
    """The quadratic form ``f(x) = ½ xᵀAx`` for a graph's adjacency matrix."""

    def __init__(self, graph: Graph):
        self._graph = graph
        self._adjacency: sparse.csr_matrix = graph.adjacency_matrix()

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def adjacency(self) -> sparse.csr_matrix:
        """The adjacency matrix ``A``."""
        return self._adjacency

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def objective(self, x: np.ndarray) -> float:
        """``f(x) = ½ xᵀAx`` (larger is better)."""
        return 0.5 * float(x @ (self._adjacency @ x))

    def expected_uncut_edges(self, x: np.ndarray) -> float:
        """Expected number of uncut edges after randomized rounding of ``x``.

        Equals ``½ Σ_{(u,v)} (x_u x_v + 1) = f(x) + |E| / 2``.
        """
        return self.objective(x) + 0.5 * self._graph.num_edges

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """``∇f(x) = Ax`` — one sparse mat-vec, O(|E|)."""
        return self._adjacency @ x

    def gradient_step(self, x: np.ndarray, step_size: float) -> np.ndarray:
        """Ascent step ``(I + γA) x`` used by Algorithm 1, line 5."""
        return x + step_size * self.gradient(x)
