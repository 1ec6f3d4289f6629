"""The gradient's mat-vec counters.

Outside the projection step (which :class:`~repro.core.projection.\
ProjectionEngine` runs for every method), the costliest part of a GD
iteration is the CSR mat-vec of the gradient.  A stepper's
:class:`~repro.core.compaction.FreeVertexSystem` runs it, once per
group gradient, as one scipy loop per task
(:func:`~repro.graphs.graph.csr_matvec`, so outputs are bit-identical
across the serial and shm executors), and times the whole group's
mat-vec (``time.perf_counter_ns``) into its stepper's
:class:`NumpyBackend` stats, as one ``spmv`` call; the rest of the
iteration is plain numpy, inline in
:class:`~repro.core.gd.BisectionStepper` and the system.

The counters stay on the backend of the stepper that made the calls
(``BisectionStepper.backend.stats``); no result carries them.  A tracer
that keeps each stepper it sees reads them from outside
(``perfbench/tracer.py``).  :meth:`NumpyBackend.spmv` and the
:func:`kernel` timer it wears have no caller in the package: they stay
only because that tracer wraps :meth:`NumpyBackend.spmv` (to count a
mat-vec's operations and bytes), and go once it no longer reads them.
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
    """The per-kernel counters of one stepper, and a counted CSR mat-vec.

    Cheap to construct: every stepper builds its own, so the stats are
    per group, and no instance crosses a process boundary (workers build
    their own).  Input arrays may be externally owned and *read-only* —
    under the ``"shm"`` executor the graph arrays are zero-copy views
    into a shared-memory segment — and :meth:`spmv` writes only into the
    vector it returns.
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
