"""The free-vertex system the GD iteration runs on.

Once the vertex-fixing rule of §3.2 freezes a vertex at ±1 it never moves
again, so iterating on full-size arrays would keep paying for it: a
full-size mat-vec ``A @ z`` computes rows for fixed vertices only to
discard them, and every per-iteration copy/update touches all ``n``
coordinates.  Late in a run — when the majority of vertices are fixed —
most of that work would be dead.

For each task's free vertex set ``F`` and fixed set ``C``,
:class:`FreeVertexSystem` maintains

* ``A_FF`` — the adjacency restricted to free rows and columns, and
* ``boundary = A_FC @ x_C`` — the fixed vertices' (constant) contribution
  to every free vertex's gradient,

so one iteration's gradient over the free coordinates is
``A_FF @ z_F + boundary`` — O(edges among free vertices) instead of
O(all edges), on the graph's own int64 CSR (no scipy matrix), whose
unit entries are a prefix view of one shared buffer of ones.  A fixing
event costs a few array passes over the current free set; only once
most of a task's current system has been fixed is it *restricted
again* — sliced down to the surviving free vertices, with the fixed
columns' contribution folded into the boundary — so the total
restriction work over a run is bounded by a geometric sum.  Every
restriction runs through :func:`~repro.graphs.graph.restrict_csr`, whose
arrays and boundary sums are bit for bit those of scipy's fancy
indexing and mat-vec.

One system serves a whole lock-step group
(:class:`~repro.core.gd.BisectionStepper`): the tasks' systems lie back
to back in one input buffer, one boundary vector and one array of live
positions.  A gradient fills the group's input once, runs scipy's CSR
loop (:func:`~repro.graphs.graph.csr_matvec`) once per live task's block
into one zeroed output, adds the boundary and gathers the free rows
once; a fixing event is one scatter and one compression for the group.
Each task keeps its own matrix and its own re-slice schedule, so every
entry has the bits it has when its task is the group's only one.  The
group's mat-vec is timed once per gradient into the stepper's
:class:`~repro.core.kernels.NumpyBackend` stats, under ``spmv``.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from ..graphs.graph import Graph, csr_matvec, restrict_csr
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
    """Incrementally restricted ``A_FF`` plus the boundary term ``A_FC x_C``
    of every task of a group, laid out back to back.

    Each task's restriction is maintained in *epochs*: its CSR system is
    sliced down to its free vertices when the epoch opens, and a fixing
    event inside the epoch only does bookkeeping — the snapped values are
    written into the epoch's input (their columns of the epoch matrix
    then contribute exactly the constant boundary terms a re-slice would
    have produced, because fixed values never change again) and the
    vertices leave the live positions.  A task's epoch is re-sliced from
    its own matrix only once most of it has died (``_RESLICE_FRACTION`` —
    under a quarter of that task's epoch still live), so the total
    slicing work over a run is a geometric series of the first epochs'
    nonzeros, and per-iteration gradients stay O(epoch nnz) ≈
    O(free-edge count).

    Free coordinates are the group's: :attr:`free_ids` lists every
    task's free vertices back to back in task order, task ``i``'s at
    ``free_bounds[i]:free_bounds[i + 1]``, and :meth:`gradient` and
    :meth:`fix` take and return vectors in that order.

    Parameters
    ----------
    graphs:
        The tasks' graphs, whose CSRs, with unit entries, are the
        operators.  Task ``i``'s vertices are positions ``start:stop`` of
        ``fixed`` and ``values``, after the vertices of tasks ``0..i-1``.
    fixed:
        The group's boolean mask of fixed vertices.  A task with no fixed
        vertex starts from its graph's CSR itself (no slicing, no copy,
        zero boundary) — a cold-started task's starting state.
    values:
        The group's iterate; only the entries at fixed positions are read.
    backend:
        The backend whose stats count the gradient's mat-vec: one
        ``spmv`` record per gradient, for the whole group.
    unit:
        A read-only buffer of ones, at least as long as every graph's
        ``indices``: every epoch's matrix entries are a prefix view of it.
    """

    #: Live fraction of a task's epoch below which its matrix is
    #: re-sliced.  Dead entries cost mat-vec flops on every iteration, a
    #: re-slice costs one row gather of the live rows (:func:`restrict_csr`),
    #: so the epoch decays to a quarter live before paying for a rebuild:
    #: the rebuilds then sum to a geometric series of the first epoch's
    #: nonzeros.
    _RESLICE_FRACTION = 0.25

    def __init__(self, graphs: Sequence[Graph], fixed: np.ndarray, values: np.ndarray,
                 backend: NumpyBackend, unit: np.ndarray):
        fixed = np.asarray(fixed, dtype=bool)
        bounds = list(accumulate((graph.num_vertices for graph in graphs), initial=0))
        if fixed.shape != (bounds[-1],):
            raise ValueError("fixed mask must have one entry per vertex")
        values = np.asarray(values, dtype=np.float64)
        self._backend = backend
        self._unit = unit
        self._matrices: list[_EpochMatrix] = []
        epochs, free_ids = [], []
        for graph, start, stop in zip(graphs, bounds, bounds[1:]):
            free = (~fixed[start:stop]).nonzero()[0]
            if free.size == stop - start:
                # Fully free: the epoch is the graph's CSR itself (no copy)
                # and the boundary contribution is zero.
                indptr, indices = graph.indptr, graph.indices
                boundary = np.zeros(free.size)
            else:
                indptr, indices, boundary = _restrict(graph.indptr, graph.indices, free,
                                                      values[start:stop])
            self._matrices.append(_EpochMatrix(indptr, indices, unit[:indices.size],
                                               (free.size,) * 2))
            epochs.append((np.zeros(free.size), boundary, np.arange(free.size)))
            free_ids.append(start + free)
        self._free_ids = np.concatenate(free_ids)
        self._set_free_bounds(np.cumsum([0] + [ids.size for ids in free_ids]))
        self._lay_out(epochs)

    def _set_free_bounds(self, bounds: np.ndarray) -> None:
        self._bounds = bounds
        self._free_bounds = bounds.tolist()

    def _lay_out(self, epochs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Lay the tasks' epochs out back to back.  ``epochs`` holds, per
        task, its epoch input (the frozen values of its dead coords), its
        boundary and its live positions, all epoch-local; a task without
        free vertices has an empty epoch."""
        sizes = [boundary.size for _, boundary, _ in epochs]
        self._epoch_bounds = list(accumulate(sizes, initial=0))
        # A task whose live count drops below this re-slices (or, at zero
        # live, leaves the layout).
        self._reslice_below = self._RESLICE_FRACTION * np.array(sizes)
        self._input = np.concatenate([frozen for frozen, _, _ in epochs])
        self._boundary = np.concatenate([boundary for _, boundary, _ in epochs])
        self._live = np.concatenate([live + start for (_, _, live), start
                                     in zip(epochs, self._epoch_bounds)])
        self._blocks = [(matrix.indptr, matrix.indices, matrix.data, matrix.shape, start, stop)
                        for matrix, start, stop
                        in zip(self._matrices, self._epoch_bounds, self._epoch_bounds[1:])
                        if start < stop]

    # ------------------------------------------------------------------ #
    @property
    def free_ids(self) -> np.ndarray:
        """Group ids of the currently free vertices, task after task, each
        task's ascending."""
        return self._free_ids

    @property
    def num_free(self) -> int:
        return int(self._free_ids.size)

    @property
    def free_bounds(self) -> list[int]:
        """Task ``i``'s free coordinates are ``free_bounds[i]:free_bounds[i + 1]``
        of :attr:`free_ids` (and of every free-length vector)."""
        return self._free_bounds

    def epoch(self, index: int) -> tuple[_EpochMatrix, np.ndarray]:
        """Task ``index``'s current epoch: its operator (rows/cols may
        include dead coords) as CSR arrays (``indptr``, ``indices``,
        ``data``, ``shape``, ``nnz``) and its constant gradient
        contribution ``A_FC @ x_C``.  A cold start's first epoch holds the
        graph's own ``indptr`` and ``indices``, and every epoch keeps their
        int64.  Once all of a task's vertices are fixed its epoch is
        empty."""
        start, stop = self._epoch_bounds[index], self._epoch_bounds[index + 1]
        return self._matrices[index], self._boundary[start:stop]

    # ------------------------------------------------------------------ #
    def gradient(self, z_free: np.ndarray) -> np.ndarray:
        """``∇f`` over the group's free coordinates: ``(A z)_F`` per task,
        with fixed contributions from the boundary term and the frozen
        input."""
        live = self._live
        whole = live.size == self._input.size
        if whole:
            z_epoch = z_free
        else:
            z_epoch = self._input
            z_epoch[live] = z_free
        start_ns = time.perf_counter_ns()
        gradient = np.zeros(z_epoch.size)
        for indptr, indices, data, shape, start, stop in self._blocks:
            csr_matvec(indptr, indices, data, z_epoch[start:stop], shape,
                       out=gradient[start:stop])
        self._backend.stats.record("spmv", time.perf_counter_ns() - start_ns)
        gradient += self._boundary
        return gradient if whole else gradient[live]

    def fix(self, newly_fixed: np.ndarray, values: np.ndarray) -> None:
        """Freeze vertices at their snapped values.

        ``newly_fixed`` is a boolean mask over the *current free ids* and
        ``values`` the snapped ±1 values of those vertices, aligned to
        ``free_ids[newly_fixed]``.  A few passes over the group's free
        ids, and an amortized re-slice of each task whose epoch has
        mostly died.
        """
        newly_fixed = np.asarray(newly_fixed, dtype=bool)
        if newly_fixed.shape != self._free_ids.shape:
            raise ValueError("newly_fixed must mask the current free ids")
        positions = newly_fixed.nonzero()[0]
        if not positions.size:
            return
        surviving = ~newly_fixed
        self._input[self._live[positions]] = values
        self._live = self._live[surviving]
        self._free_ids = self._free_ids[surviving]
        # Each bound drops by the newly fixed vertices before it.
        bounds = self._bounds - positions.searchsorted(self._bounds)
        self._set_free_bounds(bounds)
        if np.count_nonzero(bounds[1:] - bounds[:-1] < self._reslice_below):
            self._relay()

    def _relay(self) -> None:
        """Open a new epoch for every task under ``_RESLICE_FRACTION`` of
        its epoch live — slice its matrix down to the live coords and fold
        the dead coords' contribution into its boundary; a task with no
        live coord left gets an empty epoch — and lay the group out
        again."""
        epochs = []
        for index, (start, stop, first, last) in enumerate(zip(
                self._epoch_bounds, self._epoch_bounds[1:],
                self._free_bounds, self._free_bounds[1:])):
            frozen, boundary = self._input[start:stop], self._boundary[start:stop]
            live = self._live[first:last] - start
            if live.size < self._RESLICE_FRACTION * (stop - start):
                matrix = self._matrices[index]
                indptr, indices, contribution = _restrict(matrix.indptr, matrix.indices,
                                                          live, frozen)
                self._matrices[index] = _EpochMatrix(indptr, indices,
                                                     self._unit[:indices.size],
                                                     (live.size,) * 2)
                boundary = boundary[live] + contribution
                frozen = np.zeros(live.size)
                live = np.arange(live.size)
            epochs.append((frozen, boundary, live))
        self._lay_out(epochs)
