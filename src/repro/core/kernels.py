"""The GD iteration's non-projection kernels, timed per kernel.

Outside the projection step (which :class:`~repro.core.projection.\
ProjectionEngine` runs for every method), the per-iteration cost of the
partitioner reduces to a small set of array kernels — the CSR mat-vec of
the gradient, the noise mix-in, the free-vertex gather/scatter, and
vertex fixing.  :class:`NumpyBackend` holds each of them as its plain
numpy expression; the mat-vec keeps scipy's summation order, so outputs
are bit-identical across the serial and shm executors.

Every kernel call is timed (``time.perf_counter_ns``) into the
backend's :class:`KernelStats`.  The counters stay on the backend of the
stepper that made the calls (``BisectionStepper.backend.stats``); no
result carries them.  A tracer that keeps each stepper it sees reads
them from outside (``perfbench/tracer.py``).
"""

from __future__ import annotations

import functools
import time

import numpy as np

from ..graphs.graph import csr_matvec

__all__ = ["KernelStats", "NumpyBackend", "kernel"]


class KernelStats:
    """Per-kernel call and nanosecond counters of one backend instance."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        #: kernel name -> ``[calls, total_ns]``.
        self.counters: dict[str, list[int]] = {}

    def record(self, name: str, ns: int) -> None:
        entry = self.counters.get(name)
        if entry is None:
            self.counters[name] = [1, ns]
        else:
            entry[0] += 1
            entry[1] += ns


def kernel(method):
    """Time a backend method into ``self.stats`` under the method's name."""
    name = method.__name__

    @functools.wraps(method)
    def timed(self, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return method(self, *args, **kwargs)
        finally:
            self.stats.record(name, time.perf_counter_ns() - start)

    return timed


class NumpyBackend:
    """Plain-numpy kernels with per-kernel counters.

    Cheap to construct: every stepper builds its own, so the stats are
    per group, and no instance crosses a process boundary (workers build
    their own).  Input arrays may be externally owned and *read-only* —
    under the ``"shm"`` executor the graph arrays and weight rows are
    zero-copy views into a shared-memory segment — so no kernel writes
    into an input; :meth:`scatter` writes only into its ``target``, which
    is always solver-allocated.
    """

    def __init__(self) -> None:
        self.stats = KernelStats()

    @kernel
    def spmv(self, matrix, x: np.ndarray) -> np.ndarray:
        """CSR mat-vec ``A @ x`` with the bits of scipy's ``matrix @ x``.

        ``matrix`` is a scipy CSR matrix or anything with its ``shape``,
        ``indptr``, ``indices``, ``data`` and ``nnz`` — a free-vertex
        system's epoch matrix.  Runs scipy's own loop without its per-call
        dispatch.
        """
        return csr_matvec(matrix.indptr, matrix.indices, matrix.data, x, matrix.shape)

    @kernel
    def free_gradient(self, matrix, boundary: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Compacted gradient ``A_FF @ z + boundary`` over the free set."""
        gradient = self.spmv(matrix, z)
        gradient += boundary
        return gradient

    @kernel
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return x + noise

    @kernel
    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        return values[index]

    @kernel
    def scatter(self, target: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> None:
        target[index] = values

    @kernel
    def fixing_mask(self, x: np.ndarray, threshold: float) -> np.ndarray:
        """Near-integral mask ``|x| >= threshold``."""
        return np.abs(x) >= threshold

    @kernel
    def snap(self, v: np.ndarray) -> np.ndarray:
        """Snap to sides: ``+1`` where ``v >= 0``, else ``-1``."""
        return np.where(v >= 0.0, 1.0, -1.0)
