"""Exact two-dimensional equality projection (Appendix A.2).

The paper gives a randomized ``O(n log n)`` algorithm for d = 2 that
(1) binary-searches over λ₁-coordinates of boundary-line intersections and
(2) solves a 2×2 linear system inside the region that contains the optimum.

This module implements the same two phases in a deterministic form: the
nested binary search of Appendix A.1 locates a point very close to the
optimum, and a final Newton-style polish solves the exact 2×2 linear system
of the region containing it (the coefficients of ``h^(1)``/``h^(2)`` are
linear within a region, so one solve suffices when the located region is
correct; otherwise we keep the nested-search answer).  The region linear
system is shared with the warm-start fast path
(:mod:`repro.core.projection.warmstart`), which skips phase (1) entirely
when multipliers from a nearby instance are available.
"""

from __future__ import annotations

import numpy as np

from .box import truncate
from .nested import solve_equality_system
from .warmstart import region_linear_system

__all__ = ["solve_lambda_2d", "project_exact_2d"]


def solve_lambda_2d(y: np.ndarray, weights: np.ndarray, targets: np.ndarray,
                    tolerance: float = 1e-12,
                    initial_guess: np.ndarray | None = None) -> np.ndarray:
    """Multipliers (λ₁, λ₂) with ``⟨w^(j), [y − λ₁w^(1) − λ₂w^(2)]⟩ = c_j``.

    ``initial_guess`` warm-starts the nested bracket search (see
    :func:`~repro.core.projection.nested.solve_equality_system`).
    """
    y = np.asarray(y, dtype=np.float64)
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if weights.shape[0] != 2 or targets.shape[0] != 2:
        raise ValueError("solve_lambda_2d requires exactly two dimensions")

    lambdas = solve_equality_system(y, weights, targets, tolerance, initial_guess)

    # Polish: solve the linear system of the region containing the current
    # estimate.  If the refined multipliers stay in the same region they are
    # exact; otherwise the nested-search estimate is already the best we have.
    matrix, offset = region_linear_system(y, weights, y - weights.T @ lambdas)
    try:
        refined = np.linalg.solve(matrix, offset - targets)
    except np.linalg.LinAlgError:
        return lambdas
    refined_matrix, _ = region_linear_system(y, weights, y - weights.T @ refined)
    if np.allclose(refined_matrix, matrix):
        return refined
    return lambdas


def project_exact_2d(y: np.ndarray, weights: np.ndarray, targets: np.ndarray,
                     tolerance: float = 1e-12) -> np.ndarray:
    """Exact projection onto ``{x ∈ [-1,1]ⁿ : ⟨w^(1,2), x⟩ = c_{1,2}}``."""
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    lambdas = solve_lambda_2d(y, weights, targets, tolerance)
    return truncate(np.asarray(y, dtype=np.float64) - weights.T @ lambdas)
