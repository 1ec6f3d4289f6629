"""The free-vertex system the GD iteration runs on.

Once the vertex-fixing rule of §3.2 freezes a vertex at ±1 it never moves
again, so iterating on full-size arrays would keep paying for it: a
full-size mat-vec ``A @ z`` computes rows for fixed vertices only to
discard them, and every per-iteration copy/update touches all ``n``
coordinates.  Late in a run — when the majority of vertices are fixed —
most of that work would be dead.

For the free vertex set ``F`` and fixed set ``C``,
:class:`FreeVertexSystem` maintains

* ``A_FF`` — the adjacency restricted to free rows and columns, and
* ``boundary = A_FC @ x_C`` — the fixed vertices' (constant) contribution
  to every free vertex's gradient,

so one iteration's gradient over the free coordinates is
``A_FF @ z_F + boundary`` — O(edges among free vertices) instead of
O(all edges): the mat-vec runs through the stepper's
:class:`~repro.core.kernels.NumpyBackend`, which counts it, on the
graph's own int64 CSR with unit entries (no scipy matrix).
A fixing event costs a few array passes over the current free set; only
once most of the current system has been fixed is it *restricted again*
— sliced down to the surviving free vertices, with the fixed columns'
contribution folded into the boundary — so the total restriction work
over a run is bounded by a geometric sum.  Every restriction runs
through :func:`~repro.graphs.graph.restrict_csr`, whose arrays and
boundary sums are bit for bit those of scipy's fancy indexing and
mat-vec.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graphs.graph import Graph, restrict_csr
from .kernels import NumpyBackend

__all__ = ["FreeVertexSystem"]


class _EpochMatrix(NamedTuple):
    """An epoch's ``A_FF`` as the CSR arrays the mat-vec kernel reads:
    int64 ``indptr`` and ``indices``, and unit ``data``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.indices.size


def _restrict(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square CSR's restriction to ``rows`` (int64, like the graph's)
    and the dropped columns' contribution ``A[rows][:, dropped] @ values``."""
    local = np.full(indptr.size - 1, -1, dtype=np.int64)
    local[rows] = np.arange(rows.size)
    return restrict_csr(indptr, indices, rows, local, values)


class FreeVertexSystem:
    """Incrementally restricted ``A_FF`` plus the boundary term ``A_FC x_C``.

    The restriction is maintained in *epochs*: the CSR system is sliced
    down to the free vertices when the epoch opens, and a fixing event
    inside the epoch only does bookkeeping — the snapped values are
    written into the epoch's input buffer (their columns of the epoch
    matrix then contribute exactly the constant boundary terms a
    re-slice would have produced, because fixed values never change
    again) and the vertices leave the epoch's live positions.  The epoch
    is re-sliced from its own matrix only once most of it has died
    (``_RESLICE_FRACTION`` — under a quarter still live), so the total
    slicing work over a run is a geometric series of the first epoch's
    nonzeros, and per-iteration gradients stay O(epoch nnz) ≈
    O(free-edge count).

    Parameters
    ----------
    graph:
        The graph whose CSR, with unit entries, is the operator.
    fixed:
        Global boolean mask of fixed vertices.  With no fixed vertex the
        first epoch is the graph's CSR itself (no slicing, no copy, zero
        boundary) — a cold-started stepper's starting state.
    values:
        Full iterate; only the entries at fixed positions are read.
    backend:
        The backend the gradient's mat-vec runs through, for its
        counters.
    """

    #: Live fraction below which the epoch matrix is re-sliced.  Dead
    #: entries cost mat-vec flops on every iteration, a re-slice costs one
    #: row gather of the live rows (:func:`restrict_csr`), so the epoch
    #: decays to a quarter live before paying for a rebuild: the rebuilds
    #: then sum to a geometric series of the first epoch's nonzeros.
    _RESLICE_FRACTION = 0.25

    def __init__(self, graph: Graph, fixed: np.ndarray, values: np.ndarray,
                 backend: NumpyBackend):
        fixed = np.asarray(fixed, dtype=bool)
        if fixed.shape[0] != graph.num_vertices:
            raise ValueError("fixed mask must have one entry per vertex")
        self._backend = backend
        free_ids = (~fixed).nonzero()[0]
        if free_ids.size == fixed.size:
            # Fully free: the epoch is the graph's CSR itself (no copy)
            # and the boundary contribution is zero.
            indptr, indices = graph.indptr, graph.indices
            self._boundary = np.zeros(free_ids.size)
        else:
            indptr, indices, self._boundary = _restrict(
                graph.indptr, graph.indices, free_ids, np.asarray(values, dtype=np.float64))
        # Every epoch's entries are ones: a prefix of the first epoch's.
        self._unit = np.ones(indices.size)
        self._matrix = _EpochMatrix(indptr, indices, self._unit, (free_ids.size,) * 2)
        self._epoch_ids = free_ids           # global ids of epoch coords
        self._live_local = np.arange(free_ids.size)  # epoch positions still free
        self._frozen = np.zeros(free_ids.size)  # values of dead epoch coords
        self._live_ids = free_ids            # = epoch_ids[live_local], cached

    # ------------------------------------------------------------------ #
    @property
    def free_ids(self) -> np.ndarray:
        """Global ids of the currently free vertices (ascending)."""
        return self._live_ids

    @property
    def num_free(self) -> int:
        return int(self._live_ids.size)

    @property
    def matrix(self) -> _EpochMatrix:
        """The current epoch operator (rows/cols may include dead coords)
        as CSR arrays (``indptr``, ``indices``, ``data``, ``shape``,
        ``nnz``): a cold start's first epoch holds the graph's own
        ``indptr`` and ``indices``, and every epoch keeps their int64."""
        return self._matrix

    @property
    def boundary(self) -> np.ndarray:
        """The epoch's constant gradient contribution ``A_FC @ x_C``."""
        return self._boundary

    # ------------------------------------------------------------------ #
    def gradient(self, z_free: np.ndarray) -> np.ndarray:
        """``∇f`` over the free coordinates: ``(A z)_F`` with fixed
        contributions from the boundary term and the frozen buffer."""
        live = self._live_local
        whole = live.size == self._epoch_ids.size
        if not whole:
            z_epoch = self._frozen.copy()
            z_epoch[live] = z_free
            z_free = z_epoch
        gradient = self._backend.spmv(self._matrix, z_free)
        gradient += self._boundary
        return gradient if whole else gradient[live]

    def fix(self, newly_fixed: np.ndarray, values: np.ndarray) -> None:
        """Freeze vertices at their snapped values.

        ``newly_fixed`` is a boolean mask over the *current free ids* and
        ``values`` the snapped ±1 values of those vertices, aligned to
        ``free_ids[newly_fixed]``.  A few passes over the free ids, and
        an amortized re-slice when the epoch has mostly died.
        """
        newly_fixed = np.asarray(newly_fixed, dtype=bool)
        if newly_fixed.shape[0] != self._live_ids.size:
            raise ValueError("newly_fixed must mask the current free ids")
        if not np.count_nonzero(newly_fixed):
            return
        surviving = ~newly_fixed
        self._frozen[self._live_local[newly_fixed]] = values
        self._live_local = self._live_local[surviving]
        self._live_ids = self._live_ids[surviving]
        live_count = self._live_local.size
        if live_count and live_count < self._RESLICE_FRACTION * self._epoch_ids.size:
            self._reslice()

    def _reslice(self) -> None:
        """Open a new epoch: slice the matrix down to the live coords and
        fold the dead coords' contribution into the boundary."""
        live = self._live_local
        indptr, indices, contribution = _restrict(self._matrix.indptr, self._matrix.indices,
                                                  live, self._frozen)
        self._matrix = _EpochMatrix(indptr, indices, self._unit[:indices.size],
                                    (live.size,) * 2)
        self._boundary = self._boundary[live] + contribution
        self._epoch_ids = self._live_ids
        self._live_local = np.arange(live.size)
        self._frozen = np.zeros(live.size)
