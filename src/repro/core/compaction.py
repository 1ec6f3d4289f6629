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
O(all edges), computed by the stepper's
:class:`~repro.core.kernels.KernelBackend` for its per-kernel counters.
A fixing event costs O(newly fixed) bookkeeping, an integer live count
included; only once most of the current system has been fixed is it
*restricted again* — sliced down to the surviving free vertices, with the
fixed columns' contribution folded into the boundary — so the total
restriction work over a run is bounded by a geometric sum.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .kernels import KernelBackend

__all__ = ["FreeVertexSystem"]


class FreeVertexSystem:
    """Incrementally restricted ``A_FF`` plus the boundary term ``A_FC x_C``.

    The restriction is maintained in *epochs*: the CSR system is sliced
    down to the free vertices when the epoch opens, and a fixing event
    inside the epoch costs O(newly fixed) — the snapped values are
    written into the epoch's input buffer (their columns of the epoch
    matrix then contribute exactly the constant boundary terms a
    re-slice would have produced, because fixed values never change
    again) and the vertices leave the live mask.  The epoch is re-sliced
    from its own matrix only once most of it has died
    (``_RESLICE_FRACTION`` — under a quarter still live), so the total
    slicing work over a run is a geometric series of the first epoch's
    nonzeros, and per-iteration gradients stay O(epoch nnz) ≈
    O(free-edge count).

    Parameters
    ----------
    adjacency:
        The full (possibly edge-weighted) symmetric adjacency.
    fixed:
        Global boolean mask of fixed vertices.  With no fixed vertex the
        system degenerates to the original operator itself (no slicing,
        zero boundary) — a cold-started stepper's starting state.
    values:
        Full iterate; only the entries at fixed positions are read.
    backend:
        The :class:`~repro.core.kernels.KernelBackend` the gradient
        mat-vec routes through, for per-kernel counters.
    """

    #: Live fraction below which the epoch matrix is re-sliced.  Dead
    #: entries only cost mat-vec flops (cheap) while a re-slice costs a
    #: scipy row+column fancy-index pass (expensive), so the epoch is
    #: allowed to decay substantially before paying for a rebuild.
    _RESLICE_FRACTION = 0.25

    def __init__(self, adjacency: sparse.csr_matrix, fixed: np.ndarray,
                 values: np.ndarray, backend: KernelBackend):
        fixed = np.asarray(fixed, dtype=bool)
        if fixed.shape[0] != adjacency.shape[0]:
            raise ValueError("fixed mask must have one entry per vertex")
        values = np.asarray(values, dtype=np.float64)
        self._backend = backend
        free_ids = np.flatnonzero(~fixed)
        if not fixed.any():
            # Fully free: the epoch operator is the adjacency itself (no
            # copy) and the boundary contribution is zero.
            self._matrix = adjacency
            self._boundary = np.zeros(adjacency.shape[0])
        else:
            fixed_ids = np.flatnonzero(fixed)
            epoch_rows = adjacency[free_ids]
            self._matrix = epoch_rows[:, free_ids].tocsr()
            self._boundary = np.asarray(
                epoch_rows[:, fixed_ids] @ values[fixed_ids]).ravel()
        self._epoch_ids = free_ids           # global ids of epoch coords
        self._live = np.ones(free_ids.size, dtype=bool)
        self._live_count = free_ids.size     # = live.sum(), an exact int
        self._frozen = np.zeros(free_ids.size)  # values of dead epoch coords
        self._live_ids = free_ids            # = epoch_ids[live], cached

    # ------------------------------------------------------------------ #
    @property
    def free_ids(self) -> np.ndarray:
        """Global ids of the currently free vertices (ascending)."""
        return self._live_ids

    @property
    def num_free(self) -> int:
        return int(self._live_ids.size)

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The current epoch operator (rows/cols may include dead coords)."""
        return self._matrix

    @property
    def boundary(self) -> np.ndarray:
        """The epoch's constant gradient contribution ``A_FC @ x_C``."""
        return self._boundary

    # ------------------------------------------------------------------ #
    def gradient(self, z_free: np.ndarray) -> np.ndarray:
        """``∇f`` over the free coordinates: ``(A z)_F`` with fixed
        contributions from the boundary term and the frozen buffer."""
        backend = self._backend
        if self._live_count == self._epoch_ids.size:
            return backend.free_gradient(self._matrix, self._boundary, z_free)
        z_epoch = self._frozen.copy()
        z_epoch[self._live] = z_free
        full = backend.free_gradient(self._matrix, self._boundary, z_epoch)
        return backend.gather(full, self._live)

    def fix(self, newly_fixed: np.ndarray, values: np.ndarray) -> None:
        """Freeze vertices at their snapped values.

        ``newly_fixed`` is a boolean mask over the *current free ids* and
        ``values`` the snapped ±1 values of those vertices, aligned to
        ``free_ids[newly_fixed]``.  O(newly fixed) bookkeeping, plus an
        amortized re-slice when the epoch has mostly died.
        """
        newly_fixed = np.asarray(newly_fixed, dtype=bool)
        if newly_fixed.shape[0] != self._live_ids.size:
            raise ValueError("newly_fixed must mask the current free ids")
        if not newly_fixed.any():
            return
        dying = np.flatnonzero(self._live)[newly_fixed]
        self._frozen[dying] = np.asarray(values, dtype=np.float64)
        self._live[dying] = False
        self._live_count -= dying.size
        self._live_ids = self._epoch_ids[self._live]
        if self._live_count and self._live_count < self._RESLICE_FRACTION * self._epoch_ids.size:
            self._reslice()

    def _reslice(self) -> None:
        """Open a new epoch: slice the matrix down to the live coords and
        fold the dead coords' contribution into the boundary."""
        live_local = np.flatnonzero(self._live)
        dead_local = np.flatnonzero(~self._live)
        rows = self._matrix[live_local]
        self._boundary = (self._boundary[live_local]
                          + np.asarray(rows[:, dead_local]
                                       @ self._frozen[dead_local]).ravel())
        self._matrix = rows[:, live_local].tocsr()
        self._epoch_ids = self._live_ids
        self._live = np.ones(self._epoch_ids.size, dtype=bool)
        self._frozen = np.zeros(self._epoch_ids.size)
        self._live_ids = self._epoch_ids
