"""Per-region caches of projection invariants.

Within one GD bisection the feasible region ``K = B∞ ∩ ⋂_j S^j`` never
changes between fixing events (the weights, the band bounds, and therefore
every derived quantity are fixed), so re-deriving weight sums, squared
norms, and tolerance scales on every projection call would repeat work
once per GD iteration, per bisection task.  :class:`RegionCache`
computes each of these once per region and hands them to the projection
kernels.

Everything cached here is *bit-compatible* with the uncached computation:
the cache stores the result of the very same numpy expression the kernels
would otherwise evaluate inline, so enabling the cache cannot change a
single output bit (this is asserted by the cache on/off determinism
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import FeasibleRegion

__all__ = ["DimensionCache", "RegionCache"]


@dataclass(frozen=True)
class DimensionCache:
    """Invariants of a single balance dimension ``j``.

    Attributes
    ----------
    weights:
        The ``(n,)`` weight row (a view into the region's matrix).
    total:
        ``Σ_i w_i`` — the attainable range of ``⟨w, x⟩`` is ``[-total, total]``.
    norm_squared:
        ``⟨w, w⟩`` — the hyperplane-projection denominator.
    weights_squared:
        ``w_i²`` elementwise — the slope contributions of the piecewise
        linear ``h(λ)`` used by the 1-D breakpoint sweep.
    """

    weights: np.ndarray = field(repr=False)
    total: float
    norm_squared: float
    weights_squared: np.ndarray = field(repr=False)

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "DimensionCache":
        weights = np.asarray(weights, dtype=np.float64)
        return cls(
            weights=weights,
            total=float(weights.sum()),
            norm_squared=float(weights @ weights),
            weights_squared=weights * weights,
        )


class RegionCache:
    """All per-region invariants of the projection hot path.

    One instance is built per :class:`FeasibleRegion` (i.e. once per
    bisection task, plus once per fixing event) and shared across every
    projection of that region.
    """

    def __init__(self, region: FeasibleRegion):
        self.region = region
        self.dimensions = tuple(
            DimensionCache.from_weights(region.weights[j])
            for j in range(region.num_dimensions)
        )
        #: Tolerance scales (``max(Σ|w|, 1)``) per dimension, as used by
        #: :meth:`FeasibleRegion.contains` and the exact projector's KKT check.
        self.scales = np.maximum(np.abs(region.weights).sum(axis=1), 1.0)
        #: Band centers ``(lower + upper) / 2`` per dimension — the
        #: hyperplane targets of the paper's "project on S^j_0" variant
        #: (consumed by the alternating projector's sweep).
        self.centers = 0.5 * (region.lower + region.upper)

    def contains(self, x: np.ndarray, tolerance: float = 1e-7) -> bool:
        """:meth:`FeasibleRegion.contains` with the cached tolerance scale."""
        return self.region.contains(x, tolerance, scale=self.scales)
