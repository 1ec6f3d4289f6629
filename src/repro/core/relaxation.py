"""Continuous relaxation of the 2-way MDBGP objective (Section 2).

For ``k = 2`` the integer program maximizes ``½ Σ_{(u,v) ∈ E} (x_u x_v + 1)``
over ``x ∈ {-1, 1}ⁿ`` subject to balance constraints.  Dropping the additive
constant, the relaxation maximizes ``f(x) = ½ xᵀAx`` over the convex body
``K = B∞ ∩ ⋂_j S^j_ε`` where ``A`` is the adjacency matrix.

The optimizer needs ``∇f = Ax``, a sparse matrix--vector product, which
the GD iteration computes on the free vertices only
(:meth:`~repro.core.compaction.FreeVertexSystem.gradient`);
:class:`QuadraticRelaxation` evaluates ``f`` for the per-iteration
history.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from ..graphs.graph import Graph

__all__ = ["QuadraticRelaxation"]


class QuadraticRelaxation:
    """The quadratic form ``f(x) = ½ xᵀAx`` for a graph's adjacency matrix.

    The scipy matrix :attr:`adjacency` is built on first use: the GD
    iteration multiplies by the graph's own CSR instead
    (:class:`~repro.core.compaction.FreeVertexSystem`).
    """

    def __init__(self, graph: Graph):
        self._graph = graph

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """The adjacency matrix ``A``, built on first use."""
        return self._graph.adjacency_matrix()

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def objective(self, x: np.ndarray) -> float:
        """``f(x) = ½ xᵀAx`` (larger is better)."""
        return 0.5 * float(x @ (self.adjacency @ x))
