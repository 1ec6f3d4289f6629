"""The reference backend: each kernel as its plain numpy expression."""

from __future__ import annotations

import numpy as np

from .base import KernelBackend, kernel

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Plain-numpy kernels."""

    # ------------------------------------------------------------------ #
    # Sparse mat-vec kernels
    # ------------------------------------------------------------------ #
    @kernel
    def spmv(self, matrix, x: np.ndarray) -> np.ndarray:
        return matrix @ x

    @kernel
    def free_gradient(self, matrix, boundary: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.spmv(matrix, z) + boundary

    # ------------------------------------------------------------------ #
    # Iterate kernels
    # ------------------------------------------------------------------ #
    @kernel
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return x + noise

    @kernel
    def step_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        delta = new - old
        return float(np.sqrt(delta @ delta))

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
