"""Projection engine: amortize per-region work across GD iterations.

The projected gradient descent of Algorithm 1 performs one Euclidean
projection onto ``K = B∞ ∩ ⋂_j S^j`` per iteration, and the feasible
region is *identical* across all iterations of a bisection (it only
shrinks when vertices are fixed, which happens a handful of times per
run).  Treating every projection as a cold start would re-derive weight
sums, norms and tolerance scales and re-run the active-set / Dykstra
loops from scratch each time.

:class:`ProjectionEngine` is the stateful layer that kills that repeated
work.  For its current region it holds

* a :class:`~repro.core.projection.cache.RegionCache` of the weight-derived
  invariants (sums, squared norms, elementwise squares, tolerance scales),
* the projector instance itself, and
* *warm-start state* from the previous projection: the exact projector's
  final active set and multipliers, or Dykstra's correction (dual)
  vectors.

Because consecutive GD iterates are close, the KKT sign pattern is stable
between calls and most warm-started projections resolve in a single
O(n) pass (:mod:`~repro.core.projection.warmstart`) instead of an
O(n log n) sort-and-search — or, for d ≥ 2 cold solves, instead of a full
nested bisection.  When vertices are fixed the region is narrowed in
place (:meth:`ProjectionEngine.narrow_restricted`), O(free) per fixing
event, and the warm state carries over.

Each bisection task constructs its own engine.  The engine is a plain
picklable object, but it is deliberately *not* shipped across the
:class:`~repro.core.executor.BisectionExecutor` process boundary: each
worker runs ``gd_bisect`` on its own subproblem and therefore builds its
own engine locally, so no cache state needs to survive pickling.

Warm starts never change the mathematical result — wrong warm guesses are
detected and corrected by the same KKT rules as cold starts.  With
``cache=False`` every projection is a cold start: the reference that
tests and the cold/warm microbenchmark compare warm starts against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternating import AlternatingProjector
from .base import FeasibleRegion, Projector
from .cache import RegionCache
from .dykstra import DykstraProjector
from .exact import ExactProjector

__all__ = ["ProjectionEngine", "ProjectionStats"]


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
        Times the region was narrowed after a fixing event and its cache
        rebuilt.
    dykstra_rounds:
        Total Dykstra rounds across all calls (warm starts shrink this).
    """

    calls: int = 0
    warm_attempts: int = 0
    warm_accepts: int = 0
    fallbacks: int = 0
    region_rebuilds: int = 0
    dykstra_rounds: int = 0


class _RegionState:
    """Cache + projector + warm-start state for one concrete region."""

    def __init__(self, method: str, region: FeasibleRegion, use_cache: bool,
                 backend=None):
        self.region = region
        self.cache = RegionCache(region) if use_cache else None
        self.projector = _build_projector(method, region, self.cache, backend)
        # Warm-start state (only populated when the cache is enabled).
        self.warm_lambdas: dict[int, float] | None = None
        self.corrections: list[np.ndarray] | None = None


def _build_projector(method: str, region: FeasibleRegion,
                     cache: RegionCache | None, backend=None) -> Projector:
    if method == "exact":
        return ExactProjector(region, cache=cache, backend=backend)
    if method == "alternating":
        return AlternatingProjector(region, one_shot=False, cache=cache,
                                    backend=backend)
    if method == "alternating_oneshot":
        return AlternatingProjector(region, one_shot=True, cache=cache,
                                    backend=backend)
    if method == "dykstra":
        return DykstraProjector(region, cache=cache)
    raise ValueError(f"unknown projection method {method!r}")


class ProjectionEngine:
    """Cache-and-warm-start projection onto one feasible region.

    Parameters
    ----------
    method:
        One of ``"exact"``, ``"alternating"``, ``"alternating_oneshot"``,
        ``"dykstra"`` (same names as :func:`make_projector`).
    region:
        The full feasible region of the bisection.
    cache:
        When False every projection is a cold start: a stateless
        projector per region, producing bit-identical outputs to the
        cached mode for d ≤ 2 and outputs agreeing to the cold solvers'
        tolerance beyond.
    backend:
        Optional :class:`~repro.core.kernels.KernelBackend` the projectors
        route their numeric kernels (hyperplane projections, box clips,
        breakpoint sweeps) through.  ``None`` calls the numpy functions
        directly — same arithmetic, no per-kernel counters.
    """

    def __init__(self, method: str, region: FeasibleRegion, *, cache: bool = True,
                 backend=None):
        self._method = method
        self._cache_enabled = bool(cache)
        self._backend = backend
        self._stats = ProjectionStats()
        self._state = _RegionState(method, region, self._cache_enabled, backend)

    # ------------------------------------------------------------------ #
    @property
    def method(self) -> str:
        return self._method

    @property
    def region(self) -> FeasibleRegion:
        """The current region: the full one until vertices are fixed."""
        return self._state.region

    @property
    def stats(self) -> ProjectionStats:
        return self._stats

    def count_external_projection(self) -> None:
        """Record a projection performed *outside* the engine.

        The stepper folds the one-shot projection sweep into
        :meth:`~repro.core.kernels.FusedBackend.fused_update` and never
        enters :meth:`project`; it calls this per iteration so
        :attr:`stats` counts every projection.
        """
        self._stats.calls += 1

    def reset(self) -> None:
        """Drop all warm-start state (the cache itself stays valid)."""
        self._state.warm_lambdas = None
        self._state.corrections = None

    def seed_warm_lambdas(self, lambdas: dict[int, float]) -> None:
        """Seed the exact projector's warm multipliers from external state.

        Multipliers are indexed by balance dimension, so a warm state
        exported from *another* engine over the same dimensions — the
        previous repair pass of the same recursion-tree node, most
        notably — is a valid warm guess here.  Wrong guesses are detected
        and corrected by the usual KKT rules, so seeding can change the
        solve path but never the answer.  A no-op when the cache is
        disabled or the method keeps no multiplier state.
        """
        if self._cache_enabled and lambdas:
            self._state.warm_lambdas = dict(lambdas)

    def export_warm_lambdas(self) -> dict[int, float] | None:
        """The most recent solve's multipliers, for seeding another
        engine; ``None`` when there is nothing warm."""
        if self._state.warm_lambdas:
            return dict(self._state.warm_lambdas)
        return None

    def project(self, point: np.ndarray) -> np.ndarray:
        """Project onto the current region, warm-starting from the last call."""
        self._stats.calls += 1
        state = self._state
        projector = state.projector

        if isinstance(projector, ExactProjector):
            warm = state.warm_lambdas if self._cache_enabled else None
            if warm:
                self._stats.warm_attempts += 1
            before_fallbacks = projector.fallback_count
            x = projector.project(point, warm_lambdas=warm)
            self._stats.fallbacks += projector.fallback_count - before_fallbacks
            if projector.last_warm_accepted:
                self._stats.warm_accepts += 1
            if self._cache_enabled:
                state.warm_lambdas = projector.last_lambdas
            return x

        if isinstance(projector, DykstraProjector):
            warm = state.corrections if self._cache_enabled else None
            x = projector.project(point, warm_corrections=warm)
            self._stats.dykstra_rounds += projector.last_rounds
            if self._cache_enabled:
                state.corrections = projector.last_corrections
            return x

        return projector.project(point)

    def narrow_restricted(self, surviving: np.ndarray,
                          newly_fixed_values: np.ndarray) -> None:
        """Narrow the current region after a fixing event.

        ``surviving`` masks the current region's coordinates that stay
        free; ``newly_fixed_values`` are the values of the dropped
        coordinates (aligned with ``~surviving``), whose constant
        contribution shifts the bounds (:meth:`FeasibleRegion.restrict`).
        O(current vertices) per call, never O(n).  Warm state carries
        over: multipliers are per-dimension (unchanged by narrowing) and
        Dykstra corrections are sliced down to the surviving coordinates.
        """
        surviving = np.asarray(surviving, dtype=bool)
        previous = self._state
        state = _RegionState(self._method,
                             previous.region.restrict(surviving, newly_fixed_values),
                             self._cache_enabled, self._backend)
        state.warm_lambdas = previous.warm_lambdas
        if previous.corrections is not None:
            state.corrections = [c[surviving] for c in previous.corrections]
        self._state = state
        self._stats.region_rebuilds += 1
