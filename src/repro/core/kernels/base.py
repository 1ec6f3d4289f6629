"""The kernel-backend protocol: the GD iteration's non-projection kernels.

Outside the projection step (which :class:`~repro.core.projection.\
ProjectionEngine` runs for every method), the per-iteration cost of the
partitioner reduces to a small set of array kernels — the CSR mat-vec of
the gradient, the noise mix-in, the realized step length, the free-vertex
gather/scatter, and vertex fixing.  :class:`KernelBackend` names each of
them once, so the arithmetic of one kernel can change without touching
the solver.

Determinism contract
--------------------
A backend must preserve the per-kernel summation orders, so outputs are
bit-identical across the serial and shm executors.
:class:`~repro.core.kernels.NumpyBackend` is the reference: each method
is the plain numpy expression for its kernel.

Observability
-------------
Every kernel call is timed (``time.perf_counter_ns``) into the
backend's :class:`KernelStats`.  The counters stay on the backend of the
stepper that made the calls (``BisectionStepper.backend.stats``); no
result carries them.  A tracer that keeps each stepper it sees reads
them from outside (``perfbench/tracer.py``).
"""

from __future__ import annotations

import functools
import time
from abc import ABC, abstractmethod

import numpy as np

__all__ = ["KernelBackend", "KernelStats", "kernel"]


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


class KernelBackend(ABC):
    """Abstract protocol of the solver's hot kernels.

    Implementations must be cheap to construct — the solvers build one
    instance per bisection so the stats are per-run — and must never
    carry state across processes (workers construct their own).

    Buffer ownership: input arrays may be externally owned and
    *read-only* — under the ``"shm"`` executor the graph arrays and
    weight rows are zero-copy views into a shared-memory segment with
    ``writeable=False``.  Kernels must never write into an input unless
    the kernel is documented as in-place on a named *output* argument
    (:meth:`scatter`); those outputs are always solver-allocated scratch,
    never the shared inputs.
    """

    def __init__(self) -> None:
        self.stats = KernelStats()

    # ------------------------------------------------------------------ #
    # Sparse mat-vec kernels
    # ------------------------------------------------------------------ #
    @abstractmethod
    def spmv(self, matrix, x: np.ndarray) -> np.ndarray:
        """CSR mat-vec ``A @ x`` (the gradient of the relaxation)."""

    @abstractmethod
    def free_gradient(self, matrix, boundary: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Compacted gradient ``A_FF @ z + boundary`` over the free set."""

    # ------------------------------------------------------------------ #
    # Iterate kernels
    # ------------------------------------------------------------------ #
    @abstractmethod
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Noise mix-in ``x + noise``."""

    @abstractmethod
    def step_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        """Realized step length ``||new - old||``."""

    # ------------------------------------------------------------------ #
    # Free-vertex gather/scatter
    # ------------------------------------------------------------------ #
    @abstractmethod
    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``values[index]`` for an id array or boolean mask."""

    @abstractmethod
    def scatter(self, target: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> None:
        """``target[index] = values`` in place."""

    # ------------------------------------------------------------------ #
    # Vertex fixing
    # ------------------------------------------------------------------ #
    @abstractmethod
    def fixing_mask(self, x: np.ndarray, threshold: float) -> np.ndarray:
        """Near-integral mask ``|x| >= threshold``."""

    @abstractmethod
    def snap(self, v: np.ndarray) -> np.ndarray:
        """Snap to sides: ``+1`` where ``v >= 0``, else ``-1``."""
