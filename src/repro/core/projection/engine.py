"""Projection engine: the projection step of every GD iteration.

The projected gradient descent of Algorithm 1 performs one Euclidean
projection onto ``K = B∞ ∩ ⋂_j S^j`` per iteration, and the feasible
region is *identical* across all iterations of a bisection (it only
shrinks when vertices are fixed, which happens a handful of times per
run).  :class:`ProjectionEngine` is the one path every projection method
takes through a bisection.  It holds

* the projector of the current region — whose weight-derived invariants
  (sums, squared norms, tolerance scales, band centers) the
  :class:`~repro.core.projection.base.FeasibleRegion` computes once and
  keeps — and
* *warm-start state* from the previous projection: the exact projector's
  multipliers, or Dykstra's correction (dual) vectors.

:meth:`ProjectionEngine.project_step` projects one GD step
``z + γ·gradient``; :meth:`ProjectionEngine.project_in_place` projects a
step the caller formed, up to the clip to the cube (a lock-step group of
bisections forms and clips all its tasks' steps at once).  The default
one-shot sweep (:class:`~repro.core.projection.alternating.OneShotProjector`)
updates the step in place; every other method projects the stepped
point.  Because consecutive GD iterates are close, the KKT sign pattern is
stable between calls and most warm-started exact projections resolve in a
single O(n) pass (:mod:`~repro.core.projection.warmstart`) instead of an
O(n log n) sort-and-search — or, for d ≥ 2, instead of a full nested
bisection.  When vertices are fixed the region is narrowed
(:meth:`ProjectionEngine.narrow_restricted`), O(free) per fixing event,
and the warm state carries over.

Each bisection task constructs its own engine, and its warm state lives
and dies with that one solve: nothing is exported to, or seeded from,
another solve (the engines of a lock-step group share only their
:class:`ProjectionStats`).  The engine is a plain picklable object, but it is
deliberately *not* shipped across the
:class:`~repro.core.executor.BisectionExecutor` process boundary: each
worker steps its own tasks and therefore builds their engines locally.

Warm starts never change the mathematical result — wrong warm guesses are
detected and corrected by the same KKT rules as cold starts.  A fresh
projector per call (:func:`make_projector`) is the cold reference that
tests and the cold/warm microbenchmarks compare warm starts against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternating import AlternatingProjector, OneShotProjector
from .base import FeasibleRegion, Projector
from .dykstra import DykstraProjector
from .exact import ExactProjector

__all__ = ["ProjectionEngine", "ProjectionStats", "make_projector"]


@dataclass
class ProjectionStats:
    """Counters of the engine's behaviour (diagnostics and tests).

    Attributes
    ----------
    calls:
        Total projections served.
    warm_attempts / warm_accepts:
        Warm-started solves tried / resolved in a single pass.  Only the
        ``exact`` method attempts one-pass warm solves; for ``dykstra`` the
        warm start shows up as a lower round count instead.
    fallbacks:
        Times the exact projector exhausted its active-set budget and fell
        back to convergent alternating projections (KKT non-convergence —
        also logged at warning level by the projector).
    region_rebuilds:
        Times the region was narrowed after a fixing event.
    dykstra_rounds:
        Total Dykstra rounds across all calls (warm starts shrink this).
    """

    calls: int = 0
    warm_attempts: int = 0
    warm_accepts: int = 0
    fallbacks: int = 0
    region_rebuilds: int = 0
    dykstra_rounds: int = 0


def make_projector(method: str, region: FeasibleRegion) -> Projector | OneShotProjector:
    """Build a projector by name, with no warm state.

    ``method`` is one of ``"exact"``, ``"alternating"``,
    ``"alternating_oneshot"``, or ``"dykstra"``.  For the warm-started
    path a GD run takes use :class:`ProjectionEngine` instead.
    """
    if method == "exact":
        return ExactProjector(region)
    if method == "alternating":
        return AlternatingProjector(region)
    if method == "alternating_oneshot":
        return OneShotProjector(region)
    if method == "dykstra":
        return DykstraProjector(region)
    raise ValueError(f"unknown projection method {method!r}")


class ProjectionEngine:
    """Warm-started projection onto one feasible region, narrowed as
    vertices are fixed.

    Parameters
    ----------
    method:
        One of ``"exact"``, ``"alternating"``, ``"alternating_oneshot"``,
        ``"dykstra"`` (same names as :func:`make_projector`).
    region:
        The feasible region of the bisection's free vertices.
    stats:
        The counters to add to; a fresh record by default.  The engines
        of a lock-step group share one (see
        :class:`~repro.core.gd.BisectionStepper`).
    """

    def __init__(self, method: str, region: FeasibleRegion,
                 stats: ProjectionStats | None = None):
        self._method = method
        self._stats = stats if stats is not None else ProjectionStats()
        self._projector = make_projector(method, region)
        self._warm_lambdas: dict[int, float] | None = None
        self._corrections: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ProjectionStats:
        return self._stats

    def project_step(self, z: np.ndarray, gamma: float,
                     gradient: np.ndarray) -> np.ndarray:
        """Project the GD step ``z + gamma * gradient`` onto the current
        region: the projection of one iteration, for every method.  The
        step goes into a fresh buffer, which :meth:`project_in_place`
        and the box clip then update in place."""
        y = np.empty(z.shape[0])
        np.multiply(gamma, gradient, out=y)
        np.add(z, y, out=y)
        self.project_in_place(y)
        return np.clip(y, -1.0, 1.0, out=y)

    def project_in_place(self, y: np.ndarray) -> None:
        """Project the GD step ``y`` onto the current region in place, up
        to the clip to the cube, which the caller applies: a lock-step
        group clips all of its tasks' steps at once.  The one-shot sweep
        leaves the clip out; every other method's projection lies in the
        cube already, so the clip leaves it unchanged."""
        projector = self._projector
        if isinstance(projector, OneShotProjector):
            self._stats.calls += 1
            projector.sweep(y)
        else:
            y[:] = self.project(y)

    def project(self, point: np.ndarray) -> np.ndarray:
        """Project onto the current region, warm-starting from the last call."""
        self._stats.calls += 1
        projector = self._projector

        if isinstance(projector, ExactProjector):
            warm = self._warm_lambdas
            if warm:
                self._stats.warm_attempts += 1
            before_fallbacks = projector.fallback_count
            x = projector.project(point, warm_lambdas=warm)
            self._stats.fallbacks += projector.fallback_count - before_fallbacks
            if projector.last_warm_accepted:
                self._stats.warm_accepts += 1
            self._warm_lambdas = projector.last_lambdas
            return x

        if isinstance(projector, DykstraProjector):
            x = projector.project(point, warm_corrections=self._corrections)
            self._stats.dykstra_rounds += projector.last_rounds
            self._corrections = projector.last_corrections
            return x

        return projector.project(point)

    def narrow_restricted(self, surviving: np.ndarray,
                          newly_fixed_values: np.ndarray) -> None:
        """Narrow the current region after a fixing event.

        ``surviving`` masks the current region's coordinates that stay
        free; ``newly_fixed_values`` are the values of the dropped
        coordinates (aligned with ``~surviving``), whose constant
        contribution shifts the bounds (:meth:`FeasibleRegion.restrict`).
        O(current vertices) per call, never O(n).  The one-shot projector
        narrows its sweep arrays in place; every other method gets a new
        projector over the restricted region.  Warm state carries over:
        multipliers are per-dimension (unchanged by narrowing) and Dykstra
        corrections are sliced down to the surviving coordinates.
        """
        surviving = np.asarray(surviving, dtype=bool)
        projector = self._projector
        if isinstance(projector, OneShotProjector):
            projector.narrow(surviving, newly_fixed_values)
        else:
            self._projector = make_projector(
                self._method, projector.region.restrict(surviving, newly_fixed_values))
            if self._corrections is not None:
                self._corrections = [c[surviving] for c in self._corrections]
        self._stats.region_rebuilds += 1
