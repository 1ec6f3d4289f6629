"""Gaussian perturbations used to escape saddle points (Algorithm 1, line 4).

The relaxed objective ``½ xᵀAx`` has a saddle point at the origin — exactly
where the algorithm starts — so without noise the gradient is zero and no
progress is made.  The paper observes (§3.2) that for real graphs adding
noise only at the first iteration suffices, which is the default here.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseSchedule"]


class NoiseSchedule:
    """Produces the per-iteration noise vectors ``N_n(0, η_t)``."""

    def __init__(self, num_vertices: int, std: float | None = None,
                 every_iteration: bool = False,
                 rng: np.random.Generator | None = None):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if std is not None and std < 0:
            raise ValueError("std must be non-negative")
        self._num_vertices = num_vertices
        # Default magnitude: enough to break the symmetry of the saddle at 0
        # but negligible compared to the scale of integral solutions (√n).
        self._std = std if std is not None else 1.0 / np.sqrt(max(num_vertices, 1))
        self._every_iteration = every_iteration
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def std(self) -> float:
        """Noise standard deviation at iterations where noise is added."""
        return self._std

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def every_iteration(self) -> bool:
        return self._every_iteration

    def sample(self, iteration: int) -> np.ndarray:
        """Noise vector for the given iteration (zeros when noise is off)."""
        if iteration == 0 or self._every_iteration:
            return self._rng.normal(0.0, self._std, size=self._num_vertices)
        return np.zeros(self._num_vertices)
