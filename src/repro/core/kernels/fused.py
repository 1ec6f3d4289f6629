"""The fused iteration: gradient step and projection sweep in one pass.

The kernel-by-kernel iteration materializes an intermediate array per
kernel: the stepped point, one array per hyperplane sweep, the clipped
result.  On the free-vertex set those allocations (and the memory
traffic they imply) dominate once the arithmetic is cheap.
:class:`FusedBackend` collapses the step and the one-shot projection
sweep into a single in-place pass over a reused buffer — the stepper
feeds it through
:meth:`~repro.core.kernels.base.KernelBackend.fused_update` and skips the
separate kernels entirely.
"""

from __future__ import annotations

import numpy as np

from .base import kernel
from .numpy_backend import NumpyBackend

__all__ = ["FusedBackend"]


class FusedBackend(NumpyBackend):
    """Float64 fused iteration: one in-place step+projection pass.

    All primitive kernels are inherited unchanged from the reference
    backend; only the fused pass differs — and since its in-place
    operations perform the same float64 arithmetic in the same order as
    the composed kernels, the fused iteration is bit-identical to the
    reference composition (property-tested per kernel).
    """

    def __init__(self) -> None:
        super().__init__()
        self._sweep_scratch: np.ndarray | None = None

    def _scratch(self, size: int) -> np.ndarray:
        if self._sweep_scratch is None or self._sweep_scratch.size != size:
            self._sweep_scratch = np.empty(size)
        return self._sweep_scratch

    @kernel
    def fused_update(self, z: np.ndarray, gamma: float, gradient: np.ndarray,
                     weight_rows: np.ndarray, centers: np.ndarray,
                     norms_squared: np.ndarray) -> np.ndarray:
        y = np.empty(z.shape[0])
        np.multiply(gamma, gradient, out=y)
        np.add(z, y, out=y)
        scratch = self._scratch(y.size)
        for j in range(weight_rows.shape[0]):
            norm_squared = float(norms_squared[j])
            if norm_squared == 0.0:
                # Undefined hyperplane: the scalar kernel leaves the
                # point untouched.
                continue
            row = weight_rows[j]
            coefficient = (float(row @ y) - float(centers[j])) / norm_squared
            np.multiply(coefficient, row, out=scratch)
            np.subtract(y, scratch, out=y)
        np.clip(y, -1.0, 1.0, out=y)
        return y
