"""Warm-started equality projections via semismooth Newton from previous
multipliers.

The equality-constrained projection

    x = [y − Σ_j λ_j w^(j)],   ⟨w^(j), x⟩ = c_j  for all j,

is piecewise linear in λ: within a *region* (a fixed pattern of which
coordinates are saturated at ±1 and which are interior) the weighted sums
``h^(j)(λ)`` are affine, so the multipliers solve a d×d linear system.
Between consecutive GD iterations the input point moves by a small step,
hence the saturation pattern — and with it the correct region — changes in
at most a few coordinates.  :func:`try_warm_equality_solve` exploits this:
starting from the previous iteration's multipliers it alternates "solve
the linear system of the current region" with "re-classify the
coordinates" — a semismooth Newton iteration on the piecewise-affine KKT
system, each step costing O(n + d³) — and accepts only a *fixed point*
(multipliers whose own region reproduces them), which is an exact
solution obtained without any sorting, bracketing, or bisection.  If the
iteration does not settle the caller falls back to the cold solvers.

The verified fast path reproduces the cold solvers' arithmetic exactly
for d ∈ {1, 2} (same masks, same dot products, same division), which is
what makes warm and cold outputs bit-identical there; for d ≥ 3 the
cold path is itself an iterative approximation, so warm results may
differ from cold ones by the cold solver's own tolerance (~1e-12).
"""

from __future__ import annotations

import numpy as np

__all__ = ["classify_pattern", "region_linear_system", "try_warm_equality_solve"]


def classify_pattern(z: np.ndarray) -> np.ndarray:
    """Saturation pattern of ``x = [z]``: −1 (clipped low), 0 (interior), +1.

    Uses the same strict-interior convention as the cold solvers
    (``|z| < 1`` is interior, ties count as saturated).
    """
    pattern = np.zeros(z.shape, dtype=np.int8)
    pattern[z >= 1.0] = 1
    pattern[z <= -1.0] = -1
    return pattern


def region_linear_system(y: np.ndarray, weights: np.ndarray,
                         z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the d×d linear system valid in the region of
    ``z = y − Σ_j λ_j w^(j)``.

    Within a region the saturated set is constant, so
    ``h^(j)(λ) = saturated_j + Σ_{i interior} w^(j)_i (y_i − λ·w_i)`` is
    affine in λ.  Returns ``(M, b)`` with ``h(λ) = b − M λ``.
    """
    interior = np.abs(z) < 1.0
    signs = np.sign(z)
    d = weights.shape[0]
    saturated = (weights[:, ~interior] @ signs[~interior]
                 if (~interior).any() else np.zeros(d))
    interior_weights = weights[:, interior]
    offset = saturated + interior_weights @ y[interior]
    matrix = interior_weights @ interior_weights.T
    return matrix, offset


def _solve_for_pattern(y: np.ndarray, weights: np.ndarray, targets: np.ndarray,
                       z: np.ndarray) -> np.ndarray | None:
    """Multipliers of the affine system valid in ``z``'s region (None if
    singular)."""
    if weights.shape[0] == 1:
        # Mirror the d = 1 cold tail (exact_1d) operation for operation so an
        # accepted warm solve is bit-identical to the cold answer.
        w = weights[0]
        interior = np.abs(z) < 1.0
        saturated_sum = (float(w[~interior] @ np.sign(z[~interior]))
                         if (~interior).any() else 0.0)
        a = saturated_sum + float(w[interior] @ y[interior])
        b = float(w[interior] @ w[interior])
        if b <= 0.0:
            return None
        return np.array([(a - targets[0]) / b])

    matrix, offset = region_linear_system(y, weights, z)
    try:
        lambdas = np.linalg.solve(matrix, offset - targets)
    except np.linalg.LinAlgError:
        return None
    return lambdas


def try_warm_equality_solve(y: np.ndarray, weights: np.ndarray, targets: np.ndarray,
                            warm_lambdas: np.ndarray,
                            max_iterations: int = 12) -> np.ndarray | None:
    """Semismooth-Newton solve seeded by ``warm_lambdas``; ``None`` on failure.

    The multipliers of the equality-constrained projection solve the
    piecewise-affine system ``h(λ) = targets``.  Starting from the warm
    guess's saturation pattern, each iteration solves the affine system of
    the current region and re-classifies; a *fixed point* — multipliers
    whose region is the one their system was built from — is an exact
    solution and is returned.  Between consecutive GD iterates the pattern
    moves by at most a handful of coordinates, so this converges in one or
    two O(n + d³) iterations; if it has not settled after
    ``max_iterations`` (the guess was far off, or the instance is
    degenerate) the caller falls back to a cold solve.
    """
    warm_lambdas = np.asarray(warm_lambdas, dtype=np.float64).ravel()
    if warm_lambdas.shape[0] != weights.shape[0]:
        return None
    z = y - weights.T @ warm_lambdas
    pattern = classify_pattern(z)

    for _ in range(max_iterations):
        lambdas = _solve_for_pattern(y, weights, targets, z)
        if lambdas is None or not np.all(np.isfinite(lambdas)):
            return None
        z_new = y - weights.T @ lambdas
        new_pattern = classify_pattern(z_new)
        if np.array_equal(new_pattern, pattern):
            # A pattern fixed point only certifies region stability.  When
            # the region's linear system is (near-)singular — e.g. the
            # weight rows are proportional on the interior set — the solve
            # can "succeed" numerically without actually hitting the
            # targets, and the caller's KKT checks would then accept a
            # feasible but non-tight (hence suboptimal) point.  Verify
            # tightness before accepting.
            sums = weights @ np.clip(z_new, -1.0, 1.0)
            scale = np.maximum(np.abs(weights).sum(axis=1), 1.0)
            if np.all(np.abs(sums - targets) <= 1e-9 * scale):
                return lambdas
            return None
        z, pattern = z_new, new_pattern
    return None
