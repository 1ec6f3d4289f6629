"""Projections onto single balance constraints (hyperplanes and bands).

These primitives are the building blocks of the alternating and Dykstra
projection methods: each balance constraint ``lower ≤ ⟨w, x⟩ ≤ upper`` is a
slab (intersection of two half-spaces), and the paper's "project on S^j_0"
variant projects onto the central hyperplane ``⟨w, x⟩ = c``.

Both primitives accept the precomputed ``⟨w, w⟩`` (a region invariant, see
:attr:`~repro.core.projection.base.FeasibleRegion.norms_squared`) so the
iterative projectors do not recompute it on every sweep of every call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_onto_hyperplane", "project_onto_band"]


def project_onto_hyperplane(point: np.ndarray, weights: np.ndarray, target: float,
                            norm_squared: float | None = None) -> np.ndarray:
    """Euclidean projection onto ``{x : ⟨w, x⟩ = target}``."""
    weights = np.asarray(weights, dtype=np.float64)
    if norm_squared is None:
        norm_squared = float(weights @ weights)
    if norm_squared == 0.0:
        return np.array(point, dtype=np.float64, copy=True)
    offset = (float(weights @ point) - target) / norm_squared
    return point - offset * weights


def project_onto_band(point: np.ndarray, weights: np.ndarray,
                      lower: float, upper: float,
                      norm_squared: float | None = None) -> np.ndarray:
    """Euclidean projection onto the slab ``{x : lower ≤ ⟨w, x⟩ ≤ upper}``."""
    if lower > upper:
        raise ValueError("lower must not exceed upper")
    weights = np.asarray(weights, dtype=np.float64)
    value = float(weights @ point)
    if lower <= value <= upper:
        return np.array(point, dtype=np.float64, copy=True)
    target = upper if value > upper else lower
    return project_onto_hyperplane(point, weights, target, norm_squared)
