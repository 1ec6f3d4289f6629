"""The reference backend: each kernel as its plain numpy expression."""

from __future__ import annotations

import numpy as np

from ...graphs.graph import csr_matvec
from .base import KernelBackend, kernel

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Plain-numpy kernels."""

    # ------------------------------------------------------------------ #
    # Sparse mat-vec kernels
    # ------------------------------------------------------------------ #
    @kernel
    def spmv(self, matrix, x: np.ndarray) -> np.ndarray:
        # scipy's own mat-vec loop, without its per-call dispatch.
        return csr_matvec(matrix.indptr, matrix.indices, matrix.data, x, matrix.shape)

    @kernel
    def free_gradient(self, matrix, boundary: np.ndarray, z: np.ndarray) -> np.ndarray:
        gradient = self.spmv(matrix, z)
        gradient += boundary
        return gradient

    # ------------------------------------------------------------------ #
    # Iterate kernels
    # ------------------------------------------------------------------ #
    @kernel
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return x + noise

    # ------------------------------------------------------------------ #
    # Free-vertex gather/scatter
    # ------------------------------------------------------------------ #
    @kernel
    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        return values[index]

    @kernel
    def scatter(self, target: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> None:
        target[index] = values

    # ------------------------------------------------------------------ #
    # Vertex fixing
    # ------------------------------------------------------------------ #
    @kernel
    def fixing_mask(self, x: np.ndarray, threshold: float) -> np.ndarray:
        return np.abs(x) >= threshold

    @kernel
    def snap(self, v: np.ndarray) -> np.ndarray:
        return np.where(v >= 0.0, 1.0, -1.0)
