"""Feasible region description and the projector interface.

The feasible set of the relaxation (Section 2.2) is

    K = B∞ ∩ ⋂_{j=1..d} S^j,

where ``B∞ = [-1, 1]ⁿ`` and each ``S^j`` constrains the weighted sum
``⟨w^(j), x⟩`` to an interval.  In the paper the interval is the symmetric
band ``[-ε W_j, +ε W_j]`` with ``W_j = Σ_i w^(j)_i``; we store per-dimension
lower/upper bounds so that the *same* machinery also handles the reduced
problems that arise when vertices are fixed to ±1 (their contribution
shifts the interval of the remaining free vertices).

A region also carries the weight-derived invariants the projectors read
on every call — per-row sums, squared norms, elementwise squares,
tolerance scales and band centers.  Each is computed the first time it is
read and then kept for the region's lifetime; a region never changes, so
within one GD bisection each invariant is computed once per fixing event
at most, not once per iteration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["FeasibleRegion", "Projector"]


@dataclass(frozen=True)
class FeasibleRegion:
    """``[-1, 1]ⁿ`` intersected with ``lower_j ≤ ⟨w^(j), x⟩ ≤ upper_j``.

    Attributes
    ----------
    weights:
        ``(d, n)`` matrix of strictly positive vertex weights.
    lower, upper:
        Length-``d`` arrays of interval bounds on the weighted sums.
    """

    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        weights = np.atleast_2d(np.asarray(self.weights, dtype=np.float64))
        lower = np.asarray(self.lower, dtype=np.float64).ravel()
        upper = np.asarray(self.upper, dtype=np.float64).ravel()
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D (d, n) matrix")
        if lower.shape != (weights.shape[0],) or upper.shape != (weights.shape[0],):
            raise ValueError("lower/upper must have one entry per weight dimension")
        if np.any(lower > upper):
            raise ValueError("each lower bound must not exceed its upper bound")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    # ------------------------------------------------------------------ #
    @classmethod
    def balanced(cls, weights: np.ndarray, epsilon: float) -> "FeasibleRegion":
        """The paper's symmetric region ``|⟨w^(j), x⟩| ≤ ε Σ_i w^(j)_i``."""
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        slack = epsilon * weights.sum(axis=1)
        return cls(weights=weights, lower=-slack, upper=slack)

    @property
    def num_dimensions(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_vertices(self) -> int:
        return int(self.weights.shape[1])

    @cached_property
    def totals(self) -> np.ndarray:
        """``Σ_i w^(j)_i`` per row: ``⟨w^(j), x⟩`` ranges over ``±totals[j]``."""
        return np.array([float(w.sum()) for w in self.weights])

    @cached_property
    def norms_squared(self) -> np.ndarray:
        """``⟨w^(j), w^(j)⟩`` per row: the hyperplane-projection denominators."""
        return np.array([float(w @ w) for w in self.weights])

    @cached_property
    def weights_squared(self) -> np.ndarray:
        """``w_i²`` elementwise: the slopes of the 1-D breakpoint sweep."""
        return self.weights * self.weights

    @cached_property
    def scales(self) -> np.ndarray:
        """``max(Σ_i |w^(j)_i|, 1)`` per row: the band tolerance scales."""
        return np.maximum(np.abs(self.weights).sum(axis=1), 1.0)

    @cached_property
    def centers(self) -> np.ndarray:
        """``(lower + upper) / 2`` per row: the band-center hyperplanes."""
        return 0.5 * (self.lower + self.upper)

    def weighted_sums(self, x: np.ndarray) -> np.ndarray:
        """``⟨w^(j), x⟩`` for every dimension ``j``."""
        return self.weights @ x

    def violation(self, x: np.ndarray) -> float:
        """Maximum constraint violation of ``x`` (0 when feasible).

        Combines the box violation and the distance of each weighted sum to
        its interval, both in absolute terms.
        """
        box_violation = float(np.maximum(np.abs(x) - 1.0, 0.0).max(initial=0.0))
        sums = self.weighted_sums(x)
        below = np.maximum(self.lower - sums, 0.0)
        above = np.maximum(sums - self.upper, 0.0)
        band_violation = float(np.maximum(below, above).max(initial=0.0))
        return max(box_violation, band_violation)

    def contains(self, x: np.ndarray, tolerance: float = 1e-7) -> bool:
        """Whether ``x`` satisfies every constraint up to ``tolerance``.

        The band tolerance is scaled by the weight magnitude (:attr:`scales`)
        so the check is meaningful for weight functions of very different
        scales.
        """
        if np.any(np.abs(x) > 1.0 + tolerance):
            return False
        sums = self.weighted_sums(x)
        below = (self.lower - sums) / self.scales
        above = (sums - self.upper) / self.scales
        return bool(np.all(below <= tolerance) and np.all(above <= tolerance))

    def restrict(self, free: np.ndarray, fixed_values: np.ndarray) -> "FeasibleRegion":
        """Region induced on free vertices when the others are fixed.

        ``free`` is a boolean mask; ``fixed_values`` gives the values of the
        vertices where ``free`` is False.  The fixed vertices' contribution
        is subtracted from both interval bounds.
        """
        free = np.asarray(free, dtype=bool)
        if free.shape != (self.num_vertices,):
            raise ValueError("free mask must have one entry per vertex")
        fixed_contribution = self.weights[:, ~free] @ np.asarray(fixed_values, dtype=np.float64)
        return FeasibleRegion(
            weights=self.weights[:, free],
            lower=self.lower - fixed_contribution,
            upper=self.upper - fixed_contribution,
        )


class Projector(ABC):
    """Interface of the projectors that hold their region: every method of
    Table 1 but the one-shot sweep
    (:class:`~repro.core.projection.alternating.OneShotProjector`)."""

    def __init__(self, region: FeasibleRegion):
        self._region = region

    @property
    def region(self) -> FeasibleRegion:
        return self._region

    @abstractmethod
    def project(self, point: np.ndarray) -> np.ndarray:
        """Return a feasible point; exact projectors return argmin ||point − x||."""
