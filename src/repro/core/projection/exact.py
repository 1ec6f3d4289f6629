"""Exact projection onto the full feasible region via an active-set method.

Section 2.2 of the paper reduces the projection onto
``K = B∞ ∩ ⋂_j {lower_j ≤ ⟨w^(j), x⟩ ≤ upper_j}`` to at most ``3^d``
equality-constrained sub-problems, one per guess of ``sign(λ_j)``.  Rather
than enumerating all guesses, this implementation runs the equivalent
active-set loop:

1. start with no active balance constraints (pure box projection) — or,
   when warm-started, with the previous call's active set;
2. solve the equality-constrained projection for the current active set
   (first trying a one-pass warm solve from the previous multipliers,
   then d = 1: exact O(n log n); d = 2: nested binary search + 2-D
   polish; d ≥ 3: nested binary search);
3. drop the active constraint whose multiplier most violates its KKT sign
   (one at a time — the classical anti-cycling rule), add inactive
   constraints that the current point violates;
4. repeat until the KKT conditions hold.

The loop visits each sign pattern at most once, so it terminates within
``3^d`` iterations; a convergent alternating-projection fallback guarantees
a feasible result even under floating-point edge cases.  Fallback
engagements are *counted* (:attr:`ExactProjector.fallback_count`) and
logged at warning level rather than silently masking KKT non-convergence.
"""

from __future__ import annotations

import logging

import numpy as np

from .base import FeasibleRegion, Projector
from .box import truncate
from .exact_1d import solve_lambda_1d
from .exact_2d import solve_lambda_2d
from .halfspace import project_onto_band
from .nested import solve_equality_system
from .warmstart import try_warm_equality_solve

__all__ = ["ExactProjector"]

logger = logging.getLogger(__name__)

_SIGN_TOLERANCE = 1e-10


class ExactProjector(Projector):
    """Exact Euclidean projection onto the feasible region (Table 1, "Exact").

    The projector is stateless with respect to correctness — every call
    computes the projection of its input from scratch — but it records the
    final active set and multipliers of the last call
    (:attr:`last_active`, :attr:`last_lambdas`) so the
    :class:`~repro.core.projection.engine.ProjectionEngine` can warm-start
    the next call, and it counts alternating-projection fallbacks
    (:attr:`fallback_count`).

    ``max_active_set_iterations`` overrides the ``3^d``-derived iteration
    budget; it exists so tests can deterministically exercise the fallback
    path.
    """

    def __init__(self, region: FeasibleRegion, tolerance: float = 1e-9,
                 max_active_set_iterations: int | None = None):
        super().__init__(region)
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if max_active_set_iterations is not None and max_active_set_iterations < 0:
            raise ValueError("max_active_set_iterations must be non-negative")
        self._tolerance = tolerance
        self._max_iterations = max_active_set_iterations
        #: Number of calls that exhausted the active-set budget and fell back
        #: to convergent alternating projections.
        self.fallback_count = 0
        #: Final active set of the last call: ``{dimension: "lower"|"upper"}``.
        self.last_active: dict[int, str] | None = None
        #: Final multipliers of the last call: ``{dimension: λ}``.
        self.last_lambdas: dict[int, float] | None = None
        #: Whether the last call's first equality solve was a warm-start hit.
        self.last_warm_accepted = False
        #: Active-set passes used by the last call.
        self.last_passes = 0

    # ------------------------------------------------------------------ #
    def project(self, point: np.ndarray,
                warm_lambdas: dict[int, float] | None = None) -> np.ndarray:
        """Project ``point``; ``warm_lambdas`` seeds the active set.

        ``warm_lambdas`` maps dimension index to the multiplier of a nearby
        instance (sign encodes the side: positive multipliers push the sum
        down onto the upper bound, negative ones up onto the lower bound).
        A warm start never changes the result — only the path to it: wrong
        guesses are corrected by the same KKT add/drop rules as cold starts.
        """
        point = np.asarray(point, dtype=np.float64)
        region = self.region
        if region.num_vertices != point.shape[0]:
            raise ValueError("point dimension does not match the feasible region")

        self.last_warm_accepted = False
        active: dict[int, str] = {}
        warm_guess: dict[int, float] | None = None
        if warm_lambdas:
            # Near-zero multipliers carry no side information — they are
            # floating-point residue of a constraint that was not really
            # active — so seeding their sign would start the loop from an
            # arbitrary (possibly jointly infeasible) active set.
            cutoff = _SIGN_TOLERANCE * max(
                1.0, max((abs(lam) for lam in warm_lambdas.values()), default=0.0))
            for j, lam in warm_lambdas.items():
                if 0 <= j < region.num_dimensions and abs(lam) > cutoff:
                    active[j] = "upper" if lam >= 0.0 else "lower"
            warm_guess = {j: lam for j, lam in warm_lambdas.items() if j in active}

        x = truncate(point)
        lambdas = np.empty(0)
        max_iterations = (self._max_iterations if self._max_iterations is not None
                          else 3 ** region.num_dimensions + region.num_dimensions + 2)
        converged = False
        passes = 0
        for passes in range(1, max_iterations + 1):
            if active:
                lambdas, x = self._solve_active(point, active, warm_guess)
                warm_guess = None  # the guess is only meaningful on the first solve
                if self._drop_wrong_sign(active, lambdas):
                    continue  # re-solve with the reduced active set
            else:
                x = truncate(point)
            # KKT check: the active constraints are tight with correctly
            # signed multipliers; if no inactive constraint is violated the
            # current point is the projection.  One weighted-sums pass
            # serves both the violation scan and the tightness check.
            sums = region.weighted_sums(x)
            scale = region.scales
            if not self._update_active_set(active, sums, scale):
                loose = self._least_tight_active(active, sums, scale)
                if loose is None:
                    converged = True
                    break
                # The equality subsolver could not make this active set
                # tight — a degenerate or jointly infeasible combination,
                # typically from a wrong warm seed.  Accepting it would
                # return a feasible but suboptimal point, so drop the
                # least-tight constraint and re-solve instead.
                del active[loose]
        self.last_passes = passes

        if converged:
            dims = sorted(active)
            self.last_active = dict(active)
            self.last_lambdas = ({j: float(lam) for j, lam in zip(dims, lambdas)}
                                 if active else {})
            return x

        # Floating-point fallback: make sure the result is feasible.
        self.fallback_count += 1
        self.last_active = None
        self.last_lambdas = None
        logger.warning(
            "exact projection active-set loop did not satisfy the KKT conditions "
            "within %d passes (d=%d, n=%d); engaging convergent "
            "alternating-projection fallback (engagement #%d)",
            max_iterations, region.num_dimensions, region.num_vertices,
            self.fallback_count)
        return self._alternating_fallback(x)

    # ------------------------------------------------------------------ #
    def _update_active_set(self, active: dict[int, str], sums: np.ndarray,
                           scale: np.ndarray) -> bool:
        """Add violated constraints to the active set; return True if changed."""
        region = self.region
        changed = False
        for j in range(region.num_dimensions):
            if j in active:
                continue
            if sums[j] > region.upper[j] + self._tolerance * scale[j]:
                active[j] = "upper"
                changed = True
            elif sums[j] < region.lower[j] - self._tolerance * scale[j]:
                active[j] = "lower"
                changed = True
        return changed

    def _least_tight_active(self, active: dict[int, str], sums: np.ndarray,
                            scale: np.ndarray) -> int | None:
        """The active dimension farthest from its bound, or None if all tight.

        An equality solve is supposed to land every active constraint on
        its bound; a constraint left loose means the subproblem was not
        actually solved (degenerate system or jointly infeasible active
        set) and must not be treated as KKT convergence.
        """
        if not active:
            return None
        region = self.region
        worst: int | None = None
        worst_error = self._tolerance
        for j, side in active.items():
            target = region.upper[j] if side == "upper" else region.lower[j]
            error = abs(float(sums[j]) - float(target)) / float(scale[j])
            if error > worst_error:
                worst_error = error
                worst = j
        return worst

    def _solve_active(self, point: np.ndarray, active: dict[int, str],
                      warm_guess: dict[int, float] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the equality-constrained projection for the active set.

        ``warm_guess`` supplies previous multipliers by dimension; when it
        covers the whole active set a one-pass warm solve is attempted
        before the cold solvers (see
        :func:`~repro.core.projection.warmstart.try_warm_equality_solve`).
        """
        region = self.region
        dims = sorted(active)
        weights = region.weights[dims]
        targets = np.array([
            region.upper[j] if active[j] == "upper" else region.lower[j] for j in dims
        ])

        guess = None
        if warm_guess is not None and all(j in warm_guess for j in dims):
            guess = np.array([warm_guess[j] for j in dims])
            lambdas = try_warm_equality_solve(point, weights, targets, guess)
            if lambdas is not None:
                self.last_warm_accepted = True
                return lambdas, truncate(point - weights.T @ lambdas)

        if len(dims) == 1:
            j = dims[0]
            lambdas = np.array([solve_lambda_1d(
                point, weights[0], targets[0], total=region.totals[j],
                weights_squared=region.weights_squared[j])])
        elif len(dims) == 2:
            lambdas = solve_lambda_2d(point, weights, targets, initial_guess=guess)
        else:
            lambdas = solve_equality_system(point, weights, targets, initial_guess=guess)
        x = truncate(point - weights.T @ lambdas)
        return lambdas, x

    def _drop_wrong_sign(self, active: dict[int, str], lambdas: np.ndarray) -> bool:
        """Remove the constraint whose multiplier most violates its KKT sign.

        Dropping a single constraint per pass (rather than every wrong-signed
        one at once) is the classical anti-cycling rule: it guarantees the
        objective of the equality-constrained subproblem decreases
        monotonically, which matters once warm starts can seed the loop with
        arbitrary — possibly far-from-optimal — active sets.
        """
        dims = sorted(active)
        scale = max(float(np.abs(lambdas).max(initial=0.0)), 1.0)
        worst_violation = _SIGN_TOLERANCE * scale
        worst_dim: int | None = None
        for lam, j in zip(lambdas, dims):
            # Upper-side multipliers must be >= 0, lower-side ones <= 0.
            violation = -lam if active[j] == "upper" else lam
            if violation > worst_violation:
                worst_violation = violation
                worst_dim = j
        if worst_dim is None:
            return False
        del active[worst_dim]
        return True

    def _alternating_fallback(self, x: np.ndarray, max_rounds: int = 1000) -> np.ndarray:
        """Convergent alternating projections used only as a safety net."""
        region = self.region
        for _ in range(max_rounds):
            if region.contains(x, self._tolerance):
                return x
            for j in range(region.num_dimensions):
                x = project_onto_band(x, region.weights[j], region.lower[j],
                                      region.upper[j], region.norms_squared[j])
            x = truncate(x)
        return x
