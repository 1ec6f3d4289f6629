"""Algorithm 1: d-dimensional balanced graph 2-partitioning via randomized
projected gradient descent.

Each iteration performs the three steps of the paper:

1. **noise** — add Gaussian noise (only at the first iteration by default)
   to escape the saddle point at the origin;
2. **gradient** — ascend the relaxed objective, ``y = z + γ_t A z``;
3. **projection** — project back onto the feasible region
   ``K = B∞ ∩ ⋂_j S^j_ε`` with the configured projection method.

Implementation details from Section 3 are included: adaptive step sizes
that keep the realized Euclidean progress per iteration constant, fixing of
near-integral vertices (they stop participating in the gradient and
projection), a final convergent projection pass that removes the residual
imbalance accumulated by one-shot alternating projections, and randomized
rounding with an optional greedy balance repair.

Every iteration runs on the free (not yet fixed) vertices only: a fixed
vertex never moves again, so the gradient is the mat-vec of the free
system ``A_FF z + A_FC x_C`` (:class:`~repro.core.compaction.FreeVertexSystem`)
and the projection region is the band induced on the free vertices.
Every projection method is served by one
:class:`~repro.core.projection.ProjectionEngine` per bisection, which
projects each gradient step (the default one-shot sweep folds the step
into its in-place pass), narrows the region as vertices are fixed, and
warm-starts each projection from the previous iterate's solution.

Structure
---------
:class:`BisectionStepper` owns one bisection's mutable state and advances
it one iteration at a time; :func:`bisection_regions` and
:func:`finalize_bisection` are its construction and finalization halves.
:func:`gd_bisect` runs one bisection: build a stepper (cold, or started
from given sides with some vertices fixed, as the incremental
repartitioner's repair tasks are), step it ``config.iterations`` times,
finalize.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..partition.metrics import edge_locality, max_imbalance
from ..partition.partition import Partition
from ..partition.validation import validate_epsilon, validate_weights
from .compaction import FreeVertexSystem
from .config import GDConfig
from .kernels import NumpyBackend
from .noise import NoiseSchedule
from .projection import (
    AlternatingProjector,
    FeasibleRegion,
    ProjectionEngine,
    ProjectionStats,
)
from .relaxation import QuadraticRelaxation
from .rounding import balance_repair, deterministic_round, randomized_round
from .step import StepSizeController, target_step_length

__all__ = [
    "IterationRecord",
    "BisectionResult",
    "BisectionStepper",
    "bisection_regions",
    "finalize_bisection",
    "gd_bisect",
    "GDPartitioner",
]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics (used by the convergence figures)."""

    iteration: int
    edge_locality_pct: float
    max_imbalance_pct: float
    step_length: float
    num_fixed: int
    objective: float


@dataclass(frozen=True)
class BisectionResult:
    """Outcome of one GD bisection run."""

    partition: Partition
    fractional: np.ndarray = field(repr=False)
    history: list[IterationRecord] = field(repr=False)
    epsilon: float
    config: GDConfig
    elapsed_seconds: float
    projection_stats: ProjectionStats | None = field(default=None, repr=False)


def _history_record(graph: Graph, weights: np.ndarray, relaxation: QuadraticRelaxation,
                    x: np.ndarray, iteration: int, step_length: float,
                    num_fixed: int) -> IterationRecord:
    sides = deterministic_round(x)
    snapshot = Partition.from_sides(graph, sides)
    return IterationRecord(
        iteration=iteration,
        edge_locality_pct=edge_locality(snapshot),
        max_imbalance_pct=100.0 * max_imbalance(snapshot, weights),
        step_length=step_length,
        num_fixed=num_fixed,
        objective=relaxation.objective(x),
    )


def bisection_regions(weights: np.ndarray, epsilon: float, config: GDConfig,
                      target_fraction: float
                      ) -> tuple[FeasibleRegion, FeasibleRegion, np.ndarray]:
    """The descent region, the final clean-up region, and the band center.

    The balance band: ``⟨w_j, x⟩`` must lie within ``eps * W_j`` of the
    target ``(2 * fraction − 1) * W_j`` (``fraction = 0.5`` recovers the
    symmetric band).  The descent region uses the (possibly wider)
    ``config.projection_epsilon``; the final region uses the
    user-requested ``epsilon``.
    """
    projection_epsilon = (config.projection_epsilon
                          if config.projection_epsilon is not None else epsilon)
    totals = weights.sum(axis=1)
    center = (2.0 * target_fraction - 1.0) * totals
    slack = projection_epsilon * totals
    region = FeasibleRegion(weights=weights, lower=center - slack, upper=center + slack)
    final_region = FeasibleRegion(weights=weights,
                                  lower=center - epsilon * totals,
                                  upper=center + epsilon * totals)
    return region, final_region, center


def finalize_bisection(graph: Graph, weights: np.ndarray, config: GDConfig,
                       epsilon: float, final_region: FeasibleRegion,
                       center: np.ndarray, x: np.ndarray, fixed: np.ndarray,
                       rng: np.random.Generator,
                       movable: np.ndarray | None = None) -> np.ndarray:
    """The tail of one bisection: clean-up projection, rounding, repair.

    One-shot alternating projections accumulate a residual imbalance; run
    convergent sweeps on the free vertices to remove it, then round the
    fractional solution and (optionally) repair the integral balance.
    Mutates ``x`` in place (the clean-up projection) and returns the ±1
    side vector.

    ``movable`` restricts the greedy balance repair to a subset of
    vertices (see :func:`repro.core.rounding.balance_repair`):
    :meth:`BisectionStepper.result` passes the vertices a warm start left
    free, so the vertices it fixed provably keep their side.  ``None``
    (every cold start) lets every vertex move.
    """
    if config.final_projection_rounds > 0:
        free = ~fixed
        if free.any():
            sub_region = final_region.restrict(free, x[fixed]) if fixed.any() else final_region
            cleaner = AlternatingProjector(sub_region,
                                           max_rounds=config.final_projection_rounds)
            x[free] = cleaner.project_to_feasibility(x[free])

    sides = randomized_round(x, rng)
    if config.balance_repair:
        sides = balance_repair(graph, sides, weights, epsilon, center=center,
                               movable=movable)
    return sides


class BisectionStepper:
    """One GD bisection's state, advanced one iteration at a time.

    :func:`gd_bisect` drives a stepper for ``config.iterations`` steps and
    calls :meth:`result`.  Every iteration runs noise → free-vertex
    gradient → projection → fixing on the free-vertex system built at
    construction (with nothing fixed, that system is the adjacency
    itself).  Only the projection depends on the method, and every method
    projects through :attr:`engine`, whose region narrows as vertices
    fix.

    Requires a non-empty graph (``gd_bisect`` short-circuits ``n == 0``).

    Warm starts
    -----------
    ``initial_x`` / ``initial_fixed`` start the iterate (and the fixed
    mask) from a given state instead of all-zeros — the incremental
    repartitioner's repair passes start this way from the previous
    assignment.  The step-length target is derived from the
    *free* vertex count: the distance left to travel is ``O(√free)``,
    not ``O(√n)``, and the final balance repair may flip only the
    vertices that started free.
    """

    def __init__(self, graph: Graph, weights: np.ndarray, epsilon: float = 0.05,
                 config: GDConfig | None = None, target_fraction: float = 0.5,
                 *, initial_x: np.ndarray | None = None,
                 initial_fixed: np.ndarray | None = None):
        # Clock starts here so BisectionResult.elapsed_seconds counts
        # construction (relaxation, regions, engine, free-vertex system).
        self._start_time = time.perf_counter()
        config = config if config is not None else GDConfig()
        epsilon = validate_epsilon(epsilon)
        # One memory order for every caller: a column slice such as
        # ``weights[:, mapping]`` is Fortran-ordered, and row dot products
        # over it differ in the last bit from the C-ordered rows the shm
        # executor ships, which would break the executors' bit-identity.
        weights = np.ascontiguousarray(validate_weights(graph, weights))
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target_fraction must be strictly between 0 and 1")
        if graph.num_vertices == 0:
            raise ValueError("BisectionStepper requires a non-empty graph")

        self.graph = graph
        self.weights = weights
        self.epsilon = epsilon
        self.config = config
        self.target_fraction = target_fraction

        n = graph.num_vertices
        self.rng = np.random.default_rng(config.seed)
        self.history: list[IterationRecord] = []
        self.relaxation = QuadraticRelaxation(graph)
        self.region, self.final_region, self.center = bisection_regions(
            weights, epsilon, config, target_fraction)

        self.noise = NoiseSchedule(n, std=config.noise_std,
                                   every_iteration=config.noise_every_iteration,
                                   rng=self.rng)

        if initial_x is not None:
            initial_x = np.array(initial_x, dtype=np.float64)
            if initial_x.shape != (n,):
                raise ValueError("initial_x must have one entry per vertex")
            self.x = initial_x
        else:
            self.x = np.zeros(n)
        if initial_fixed is not None:
            initial_fixed = np.array(initial_fixed, dtype=bool)
            if initial_fixed.shape != (n,):
                raise ValueError("initial_fixed must have one entry per vertex")
            self.fixed = initial_fixed
        else:
            self.fixed = np.zeros(n, dtype=bool)

        # Only the vertices that start free may move in the final balance
        # repair (an all-free start needs no mask).
        self._movable = ~self.fixed if self.fixed.any() else None
        # Step target over the vertices that can still move: √n for a cold
        # start, √free for a warm start.
        free_count = int(n - self.fixed.sum())
        step_target = target_step_length(max(free_count, 1), config.iterations,
                                         config.step_length_factor)
        self.controller = StepSizeController(step_target, adaptive=config.adaptive_step)

        self.fixing_start = int(config.fixing_start_fraction * config.iterations)
        # One backend and one engine per stepper: kernels and projections
        # carry per-run stats (and the engine its warm state, for this
        # solve only); worker processes construct their own, so no state
        # crosses the pickle boundary.  A warm start's engine is built on
        # the region of its free vertices, not narrowed from the full
        # region: the one-shot sweep's band centers then come from the
        # restricted bounds.
        self.backend = NumpyBackend()
        free_region = (self.region.restrict(~self.fixed, self.x[self.fixed])
                       if self.fixed.any() else self.region)
        self.engine = ProjectionEngine(config.projection_method, free_region)
        self.system = FreeVertexSystem(self.relaxation.adjacency, self.fixed, self.x,
                                       self.backend)

    @property
    def converged(self) -> bool:
        """Whether every vertex is fixed (the iterate can no longer move)."""
        return bool(self.fixed.all())

    def step(self, iteration: int) -> float:
        """Run one noise/gradient/projection/fixing iteration on the free
        vertices; returns the realized (post-projection) Euclidean step
        length, 0 once every vertex is fixed."""
        realized = 0.0 if self.converged else self._iterate(iteration)
        if self.config.record_history:
            self.history.append(_history_record(self.graph, self.weights,
                                                self.relaxation, self.x, iteration,
                                                realized, int(self.fixed.sum())))
        return realized

    def _iterate(self, iteration: int) -> float:
        config = self.config
        backend = self.backend
        system = self.system
        free_ids = system.free_ids
        x_free = backend.gather(self.x, free_ids)

        if iteration == 0 or self.noise.every_iteration:
            z = backend.mix_noise(x_free,
                                  backend.gather(self.noise.sample(iteration), free_ids))
        else:
            # The schedule would return all-zeros (drawing nothing from
            # the RNG); skip the O(n) allocation and the no-op add.
            z = x_free
        gradient = system.gradient(z)
        gamma = self.controller.step_size(gradient)
        new_free = self.engine.project_step(z, gamma, gradient)

        realized = backend.step_norm(new_free, x_free)
        self.controller.update(realized)
        backend.scatter(self.x, free_ids, new_free)

        if config.vertex_fixing and iteration >= self.fixing_start:
            newly_fixed = backend.fixing_mask(new_free, config.fixing_threshold)
            if newly_fixed.any():
                snapped = backend.snap(backend.gather(new_free, newly_fixed))
                dying_ids = backend.gather(free_ids, newly_fixed)
                backend.scatter(self.x, dying_ids, snapped)
                self.fixed[dying_ids] = True
                system.fix(newly_fixed, snapped)
                self.engine.narrow_restricted(~newly_fixed, snapped)
        return realized

    def result(self) -> BisectionResult:
        """Finalize the bisection (clean-up projection, rounding, repair)."""
        config = self.config
        sides = finalize_bisection(self.graph, self.weights, config, self.epsilon,
                                   self.final_region, self.center, self.x,
                                   self.fixed, self.rng, movable=self._movable)
        partition = Partition.from_sides(self.graph, sides)

        if config.record_history:
            self.history.append(_history_record(self.graph, self.weights,
                                                self.relaxation, sides,
                                                config.iterations, 0.0,
                                                int(self.fixed.sum())))

        return BisectionResult(
            partition=partition,
            fractional=self.x,
            history=self.history,
            epsilon=self.epsilon,
            config=config,
            elapsed_seconds=time.perf_counter() - self._start_time,
            projection_stats=self.engine.stats,
        )


def gd_bisect(graph: Graph, weights: np.ndarray, epsilon: float = 0.05,
              config: GDConfig | None = None,
              target_fraction: float = 0.5, *,
              initial_x: np.ndarray | None = None,
              initial_fixed: np.ndarray | None = None) -> BisectionResult:
    """Partition ``graph`` into two parts balanced along every weight row.

    Parameters
    ----------
    graph:
        Input graph.
    weights:
        ``(d, n)`` (or ``(n,)``) strictly positive weight matrix — one row
        per balance dimension.
    epsilon:
        Allowed relative imbalance of the final partition.
    config:
        Algorithm parameters; defaults to :class:`GDConfig()`.
    target_fraction:
        Fraction of each weight dimension that part ``V₁`` should receive
        (0.5 for an even split).  Used by recursive partitioning into a
        number of parts that is not a power of two.
    initial_x, initial_fixed:
        A warm start, as in :class:`BisectionStepper`.
    """
    config = config if config is not None else GDConfig()
    epsilon = validate_epsilon(epsilon)

    if graph.num_vertices == 0:
        start_time = time.perf_counter()
        validate_weights(graph, weights)
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target_fraction must be strictly between 0 and 1")
        empty = Partition(graph=graph, assignment=np.empty(0, dtype=np.int64), num_parts=2)
        return BisectionResult(partition=empty, fractional=np.empty(0), history=[],
                               epsilon=epsilon, config=config,
                               elapsed_seconds=time.perf_counter() - start_time)

    stepper = BisectionStepper(graph, weights, epsilon, config, target_fraction,
                               initial_x=initial_x, initial_fixed=initial_fixed)
    for iteration in range(config.iterations):
        stepper.step(iteration)
    return stepper.result()


class GDPartitioner:
    """Object-oriented wrapper around :func:`gd_bisect` / recursive k-way.

    This is the primary public entry point::

        partitioner = GDPartitioner(epsilon=0.05, config=GDConfig(iterations=100))
        partition = partitioner.partition(graph, weights, num_parts=8)

    ``config.execution`` selects the execution backend of the recursive
    k-way scheduler (see :mod:`repro.core.executor`); it does not affect
    a plain 2-way :meth:`bisect`.
    """

    name = "GD"

    def __init__(self, epsilon: float = 0.05, config: GDConfig | None = None):
        self.epsilon = validate_epsilon(epsilon)
        self.config = config if config is not None else GDConfig()

    def bisect(self, graph: Graph, weights: np.ndarray,
               target_fraction: float = 0.5) -> BisectionResult:
        """Two-way partition with full diagnostics."""
        return gd_bisect(graph, weights, self.epsilon, self.config, target_fraction)

    def partition(self, graph: Graph, weights: np.ndarray, num_parts: int = 2) -> Partition:
        """Partition into ``num_parts`` parts (recursive bisection for k > 2)."""
        from .recursive import recursive_bisection  # local import avoids a cycle

        if num_parts == 2:
            return self.bisect(graph, weights).partition
        return recursive_bisection(graph, weights, num_parts, self.epsilon, self.config)
