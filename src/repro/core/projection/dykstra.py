"""Dykstra's projection algorithm (§3.1, Table 1).

Unlike plain alternating projections, Dykstra's algorithm converges to the
*exact* Euclidean projection onto the intersection of convex sets, at the
cost of maintaining one correction vector per set.  In the paper's
experiments it produces the same results as the exact projection, and we
use it both as an independent implementation to cross-check the exact
projector and as a user-selectable projection method.

Dykstra's iteration is block coordinate ascent on the dual of the
projection problem (Gaffke & Mathar 1989), so the correction vectors are
dual variables and the algorithm converges from *any* starting corrections
— not only from zero.  The :class:`~repro.core.projection.engine.\
ProjectionEngine` exploits this by warm-starting each call from the
previous iteration's corrections, which for the slowly-moving GD iterates
collapses the round count to near one.
"""

from __future__ import annotations

import numpy as np

from .base import FeasibleRegion, Projector
from .box import truncate
from .halfspace import project_onto_band

__all__ = ["DykstraProjector"]


class DykstraProjector(Projector):
    """Dykstra's alternating projection with correction terms."""

    def __init__(self, region: FeasibleRegion, max_rounds: int = 500,
                 tolerance: float = 1e-10):
        super().__init__(region)
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self._max_rounds = max_rounds
        self._tolerance = tolerance
        #: Correction (dual) vectors of the most recent call, exposed so the
        #: projection engine can warm-start the next call.
        self.last_corrections: list[np.ndarray] | None = None
        #: Rounds used by the most recent call (engine diagnostics).
        self.last_rounds: int = 0

    def project(self, point: np.ndarray,
                warm_corrections: list[np.ndarray] | None = None) -> np.ndarray:
        x = np.asarray(point, dtype=np.float64).copy()
        region = self.region
        if region.num_vertices != x.shape[0]:
            raise ValueError("point dimension does not match the feasible region")

        num_sets = region.num_dimensions + 1  # one slab per dimension + the cube
        if (warm_corrections is not None and len(warm_corrections) == num_sets
                and all(c.shape == x.shape for c in warm_corrections)):
            corrections = [c.copy() for c in warm_corrections]
            # The algorithm maintains the primal-dual invariant
            # ``x = y − Σ_j p_j`` after every block update; a warm dual start
            # is only valid if the initial primal point satisfies it too
            # (starting from x = y with stale corrections solves a shifted
            # problem and converges to the wrong point).
            for correction in corrections:
                x -= correction
        else:
            corrections = [np.zeros_like(x) for _ in range(num_sets)]
        scale = max(float(np.linalg.norm(point)), 1.0)

        rounds = 0
        for rounds in range(1, self._max_rounds + 1):
            previous = x.copy()
            for set_index in range(num_sets):
                shifted = x + corrections[set_index]
                if set_index < region.num_dimensions:
                    projected = project_onto_band(
                        shifted, region.weights[set_index],
                        region.lower[set_index], region.upper[set_index],
                        region.norms_squared[set_index])
                else:
                    projected = truncate(shifted)
                corrections[set_index] = shifted - projected
                x = projected
            change = float(np.linalg.norm(x - previous))
            if change <= self._tolerance * scale and region.contains(x, 1e-7):
                break
        self.last_corrections = corrections
        self.last_rounds = rounds
        return x
