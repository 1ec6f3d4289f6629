"""The kernel-backend protocol: the GD hot loop as ~a dozen named kernels.

Every per-iteration cost of the partitioner reduces to a small set of
array kernels — the CSR mat-vec of the gradient, the axpy of the step
update, the noise mix-in, the projection sweep's hyperplane updates, the
breakpoint sweep of the exact 1-D projection, the free-vertex
gather/scatter, and vertex fixing.
:class:`KernelBackend` names each of them once, so the arithmetic of one
kernel can change without touching the solver.

Determinism contract
--------------------
A backend must preserve the per-kernel summation orders, so outputs are
bit-identical across the serial and shm executors.
:class:`~repro.core.kernels.NumpyBackend` is the reference: each method
is the plain numpy expression for its kernel.

Observability
-------------
Every kernel call is timed (``time.perf_counter_ns``) into the
backend's :class:`KernelStats`, which the solvers surface on
:class:`~repro.core.gd.BisectionResult.kernel_stats` — per-kernel
call/ns counters for free on every run.
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

    def as_dict(self) -> dict[str, dict[str, int]]:
        """``{kernel: {"calls": ..., "ns": ...}}``, sorted by kernel name."""
        return {
            name: {"calls": calls, "ns": ns}
            for name, (calls, ns) in sorted(self.counters.items())
        }

    def total_ns(self) -> int:
        return sum(ns for _, ns in self.counters.values())

    def total_calls(self) -> int:
        return sum(calls for calls, _ in self.counters.values())

    def merge(self, other: "KernelStats | dict") -> None:
        """Fold another stats object (or its ``as_dict`` form) into this one."""
        if isinstance(other, KernelStats):
            items = [(name, entry[0], entry[1]) for name, entry in other.counters.items()]
        else:
            items = [(name, entry["calls"], entry["ns"]) for name, entry in other.items()]
        for name, calls, ns in items:
            entry = self.counters.get(name)
            if entry is None:
                self.counters[name] = [calls, ns]
            else:
                entry[0] += calls
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
    (:meth:`scatter`, ``clip_box(..., out=)``); those outputs are always
    solver-allocated scratch, never the shared inputs.
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
    # Iterate-update kernels
    # ------------------------------------------------------------------ #
    @abstractmethod
    def axpy(self, a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y + a * x`` with scalar or per-element ``a`` (the GD step)."""

    @abstractmethod
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Noise mix-in ``x + noise``."""

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    @abstractmethod
    def step_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        """Realized step length ``||new - old||``."""

    # ------------------------------------------------------------------ #
    # Projection kernels
    # ------------------------------------------------------------------ #
    @abstractmethod
    def hyperplane_project(self, point: np.ndarray, weights: np.ndarray,
                           target: float, norm_squared: float | None = None
                           ) -> np.ndarray:
        """Euclidean projection onto ``{x : ⟨w, x⟩ = target}``."""

    @abstractmethod
    def clip_box(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Projection onto the cube: ``clip(x, -1, 1)``."""

    @abstractmethod
    def breakpoint_sweep(self, y: np.ndarray, weights: np.ndarray, target: float,
                         *, total: float | None = None,
                         weights_squared: np.ndarray | None = None) -> float:
        """Exact 1-D projection multiplier: solve ``Σ w_i [y_i − λ w_i] =
        target`` by the sorted-breakpoint prefix-sum sweep."""

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

    # ------------------------------------------------------------------ #
    # Fused iteration
    # ------------------------------------------------------------------ #
    def fused_update(self, z: np.ndarray, gamma: float, gradient: np.ndarray,
                     weight_rows: np.ndarray, centers: np.ndarray,
                     norms_squared: np.ndarray) -> np.ndarray:
        """One gradient-step + one-shot-projection pass over the free set.

        Semantically ``clip_box(sweep(z + gamma * gradient))`` where the
        sweep projects onto each balance dimension's band-center
        hyperplane in turn (``weight_rows`` is the ``(d, free)`` restricted
        weight matrix, ``centers``/``norms_squared`` its per-dimension
        invariants).  The base implementation composes the primitive
        kernels; :class:`~repro.core.kernels.FusedBackend` overrides it
        with a single in-place pass.
        """
        y = self.axpy(gamma, gradient, z)
        for j in range(weight_rows.shape[0]):
            norm_squared = float(norms_squared[j])
            if norm_squared == 0.0:
                continue
            y = self.hyperplane_project(y, weight_rows[j], float(centers[j]),
                                        norm_squared)
        return self.clip_box(y)
