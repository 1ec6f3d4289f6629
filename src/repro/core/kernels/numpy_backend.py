"""The reference backend: each kernel as its plain numpy expression."""

from __future__ import annotations

import numpy as np

from ..projection.exact_1d import solve_lambda_1d
from ..projection.halfspace import project_onto_hyperplane
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
    # Iterate-update kernels
    # ------------------------------------------------------------------ #
    @kernel
    def axpy(self, a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y + a * x

    @kernel
    def mix_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return x + noise

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    @kernel
    def step_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        delta = new - old
        return float(np.sqrt(delta @ delta))

    # ------------------------------------------------------------------ #
    # Projection kernels
    # ------------------------------------------------------------------ #
    @kernel
    def hyperplane_project(self, point: np.ndarray, weights: np.ndarray,
                           target: float, norm_squared: float | None = None
                           ) -> np.ndarray:
        return project_onto_hyperplane(point, weights, target, norm_squared)

    @kernel
    def clip_box(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.clip(x, -1.0, 1.0, out=out)

    @kernel
    def breakpoint_sweep(self, y: np.ndarray, weights: np.ndarray, target: float,
                         *, total: float | None = None,
                         weights_squared: np.ndarray | None = None) -> float:
        return solve_lambda_1d(y, weights, target, total=total,
                               weights_squared=weights_squared)

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
    # Vertex fixing and rounding
    # ------------------------------------------------------------------ #
    @kernel
    def fixing_mask(self, x: np.ndarray, threshold: float) -> np.ndarray:
        return np.abs(x) >= threshold

    @kernel
    def snap(self, v: np.ndarray) -> np.ndarray:
        return np.where(v >= 0.0, 1.0, -1.0)

    @kernel
    def masked_argmax(self, scores: np.ndarray, candidates: np.ndarray):
        return candidates[np.argmax(scores[candidates])]
