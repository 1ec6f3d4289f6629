"""Alternating projections onto the feasible region (§3.1).

The feasible region is an intersection of convex sets (the cube and one
slab per balance dimension).  Alternating projections — repeatedly
projecting onto each set in turn — converges to *a* point of the
intersection, though not necessarily the closest one.  The paper uses two
variants, one class each:

* :class:`OneShotProjector` (the default on large graphs): project onto
  each balance constraint once and then onto the cube, accepting a small
  residual infeasibility that is cleaned up at the end of the
  optimization;
* :class:`AlternatingProjector`: sweep until the point is feasible.

As in the paper, both sweeps project onto the *center* of each slab
(``S^j_0``, i.e. the hyperplane through the balance target) rather than
onto the slab itself, which gives slightly better final balance.  Only
:meth:`AlternatingProjector.project_to_feasibility`, the clean-up pass,
projects onto the slabs.
"""

from __future__ import annotations

import numpy as np

from .base import FeasibleRegion, Projector
from .box import truncate
from .halfspace import project_onto_band, project_onto_hyperplane

__all__ = ["AlternatingProjector", "OneShotProjector"]


def _row_norms(weights: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", weights, weights)


class OneShotProjector:
    """One sweep onto every band-center hyperplane, then the cube.

    The projector keeps only what the sweep reads: the weight rows (a
    contiguous copy, because the sweep dots every row on every call and
    the contiguous dot kernel is the fast one), the band centers and the
    rows' squared norms.  :meth:`narrow` drops fixed columns from them in
    place without building the restricted :class:`FeasibleRegion` — a GD
    run narrows at every fixing event, thousands of times on a deep
    recursion — which is why this is not a :class:`Projector`: after a
    narrowing there is no region object to report.
    """

    def __init__(self, region: FeasibleRegion):
        self._weights = np.ascontiguousarray(region.weights)
        self._centers = region.centers
        self._norms = _row_norms(self._weights)
        self._scratch = np.empty(self._weights.shape[1])

    def project(self, point: np.ndarray) -> np.ndarray:
        x = np.array(point, dtype=np.float64)
        if x.shape != self._scratch.shape:
            raise ValueError("point dimension does not match the feasible region")
        self.sweep(x)
        return np.clip(x, -1.0, 1.0, out=x)

    def sweep(self, y: np.ndarray) -> None:
        """Project ``y`` onto every band-center hyperplane in turn, in
        place: the sweep short of its final clip to the cube."""
        scratch = self._scratch
        for j in range(self._weights.shape[0]):
            norm_squared = float(self._norms[j])
            if norm_squared == 0.0:
                # Undefined hyperplane: project_onto_hyperplane leaves the
                # point untouched too.
                continue
            row = self._weights[j]
            coefficient = (float(row @ y) - float(self._centers[j])) / norm_squared
            np.multiply(coefficient, row, out=scratch)
            np.subtract(y, scratch, out=y)

    def narrow(self, surviving: np.ndarray, fixed_values: np.ndarray) -> None:
        """Drop the columns outside ``surviving``, now fixed at
        ``fixed_values``: their constant contribution shifts the band
        centers, as :meth:`FeasibleRegion.restrict` shifts the bounds."""
        self._centers = self._centers - self._weights[:, ~surviving] @ fixed_values
        # compress along the columns gives the C-ordered copy directly.
        self._weights = self._weights.compress(surviving, axis=1)
        self._norms = _row_norms(self._weights)
        self._scratch = np.empty(self._weights.shape[1])


class AlternatingProjector(Projector):
    """Convergent alternating projections: sweep until feasible."""

    def __init__(self, region: FeasibleRegion, max_rounds: int = 1000,
                 tolerance: float = 1e-9):
        super().__init__(region)
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self._max_rounds = max_rounds
        self._tolerance = tolerance

    def _sweep(self, x: np.ndarray) -> np.ndarray:
        region = self.region
        for j in range(region.num_dimensions):
            x = project_onto_hyperplane(x, region.weights[j], region.centers[j],
                                        region.norms_squared[j])
        return truncate(x)

    def project(self, point: np.ndarray) -> np.ndarray:
        x = np.asarray(point, dtype=np.float64)
        if self.region.num_vertices != x.shape[0]:
            raise ValueError("point dimension does not match the feasible region")
        x = self._sweep(x)
        for _ in range(self._max_rounds - 1):
            if self.region.contains(x, self._tolerance):
                break
            x = self._sweep(x)
        return x

    def project_to_feasibility(self, point: np.ndarray) -> np.ndarray:
        """Convergent sweeps onto the slabs themselves.

        Used for the final clean-up pass of the optimizer: intermediate
        iterations may leave a small residual imbalance which this removes.
        """
        region = self.region
        x = np.asarray(point, dtype=np.float64)
        for _ in range(self._max_rounds):
            if region.contains(x, self._tolerance):
                return x
            # For feasibility we always project onto the slabs (not their
            # centers): the slab is the actual constraint.
            for j in range(region.num_dimensions):
                x = project_onto_band(x, region.weights[j], region.lower[j],
                                      region.upper[j], region.norms_squared[j])
            x = truncate(x)
        return x
