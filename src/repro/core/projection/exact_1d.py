"""Exact projection machinery for a single balance constraint (§2.3, d = 1).

Given ``y ∈ Rⁿ``, positive weights ``w`` and a target ``c``, the projection
with one active balance constraint has the closed form
``x_i = [y_i − λ w_i]`` (``[z]`` is truncation to ``[-1, 1]``) where ``λ``
solves ``h(λ) = Σ_i w_i [y_i − λ w_i] = c``.

``h`` is a non-increasing piecewise-linear function with breakpoints at
``(y_i ∓ 1) / w_i``.  The solver sorts the breakpoints once and evaluates
``h`` at *all* of them simultaneously with prefix sums over the breakpoint
events (a coordinate entering the interior contributes ``w_i y_i`` to the
intercept and ``w_i²`` to the slope; one leaving to −1 removes them again),
then locates the segment containing the target and solves the linear
equation inside it — one ``argsort`` plus O(n) arithmetic, ``O(n log n)``
total, matching Theorem 1.1 for d = 1.  The seed implementation instead ran
a binary search calling the O(n) evaluator per probe; the sweep replaces
those ~log(2n) full passes with three ``cumsum`` s.

The per-region constants (``Σ w_i`` and ``w_i²``) never change within a
bisection, so callers holding a region pass its
:attr:`~repro.core.projection.base.FeasibleRegion.totals` and
:attr:`~repro.core.projection.base.FeasibleRegion.weights_squared` in
instead of recomputing them per call.
"""

from __future__ import annotations

import numpy as np

from .box import truncate

__all__ = ["weighted_truncated_sum", "solve_lambda_1d", "project_exact_1d"]


def weighted_truncated_sum(y: np.ndarray, weights: np.ndarray, lam: float) -> float:
    """``h(λ) = Σ_i w_i [y_i − λ w_i]``."""
    return float(weights @ truncate(y - lam * weights))


def solve_lambda_1d(y: np.ndarray, weights: np.ndarray, target: float,
                    *, total: float | None = None,
                    weights_squared: np.ndarray | None = None) -> float:
    """Solve ``h(λ) = target`` exactly.

    If the target is outside the attainable range ``[-Σw_i, Σw_i]`` the λ
    that gets closest (all coordinates saturated) is returned.  ``total``
    and ``weights_squared`` may supply the cached ``Σ w_i`` / elementwise
    ``w_i²`` (they are region invariants); when omitted they are computed
    in place, with bit-identical results.
    """
    y = np.asarray(y, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if y.shape != weights.shape:
        raise ValueError("y and weights must have the same shape")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    if y.size == 0:
        return 0.0

    if total is None:
        total = float(weights.sum())
    if weights_squared is None:
        weights_squared = weights * weights

    # h(-inf) = +total (all x_i = +1), h(+inf) = -total.
    if target >= total:
        return float(((y - 1.0) / weights).min()) - 1.0
    if target <= -total:
        return float(((y + 1.0) / weights).max()) + 1.0

    n = y.size
    # Breakpoints: crossing (y_i − 1)/w_i upward moves coordinate i from the
    # +1-saturated set into the interior; crossing (y_i + 1)/w_i moves it
    # from the interior into the −1-saturated set.
    breakpoints = np.concatenate([(y - 1.0) / weights, (y + 1.0) / weights])
    order = np.argsort(breakpoints, kind="stable")
    sorted_breakpoints = breakpoints[order]

    # Prefix-sum sweep: immediately right of event k,
    # h(λ) = plus_mass − minus_mass + intercept − λ · slope, with the four
    # state sums obtained from the cumulative event deltas.
    weighted_y = weights * y
    delta_plus = np.concatenate([-weights, np.zeros(n)])
    delta_minus = np.concatenate([np.zeros(n), weights])
    delta_intercept = np.concatenate([weighted_y, -weighted_y])
    delta_slope = np.concatenate([weights_squared, -weights_squared])

    plus_mass = total + np.cumsum(delta_plus[order])
    minus_mass = np.cumsum(delta_minus[order])
    intercept = np.cumsum(delta_intercept[order])
    slope = np.cumsum(delta_slope[order])
    values = plus_mass - minus_mass + intercept - sorted_breakpoints * slope

    # h is non-increasing, so ``values`` is too (up to floating-point noise);
    # the solution lies in the segment right of the last breakpoint with
    # h(breakpoint) >= target.
    if values[0] < target:
        # Solution lies left of all breakpoints where h is constant = total;
        # handled above, so this means target == h(first breakpoint) within fp.
        lo_bound, hi_bound = sorted_breakpoints[0] - 1.0, sorted_breakpoints[0]
    elif values[-1] > target:
        lo_bound, hi_bound = sorted_breakpoints[-1], sorted_breakpoints[-1] + 1.0
    else:
        above = np.flatnonzero(values >= target)
        lo = int(above[-1]) if above.size else 0
        lo = min(lo, 2 * n - 2)
        lo_bound, hi_bound = sorted_breakpoints[lo], sorted_breakpoints[lo + 1]

    # Inside the segment h is linear: h(λ) = a − b λ over the "interior"
    # coordinates (those not yet saturated anywhere in the segment).  The
    # segment sums are recomputed directly (not read off the prefix sums) so
    # the result carries no accumulated cumsum rounding.
    midpoint = 0.5 * (lo_bound + hi_bound)
    z = y - midpoint * weights
    interior = np.abs(z) < 1.0
    saturated_sum = float(weights[~interior] @ np.sign(z[~interior])) if (~interior).any() else 0.0
    a = saturated_sum + float(weights[interior] @ y[interior])
    b = float(weights[interior] @ weights[interior])
    if b <= 0.0:
        # h is constant on this segment; any λ in it attains the target.
        return midpoint
    lam = (a - target) / b
    # Guard against floating-point drift outside the segment.
    return float(np.clip(lam, lo_bound, hi_bound))


def project_exact_1d(y: np.ndarray, weights: np.ndarray, target: float) -> np.ndarray:
    """Exact projection onto ``{x ∈ [-1,1]ⁿ : ⟨w, x⟩ = target}``."""
    lam = solve_lambda_1d(y, weights, target)
    return truncate(y - lam * weights)
