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
projects each gradient step in place (the default one-shot sweep updates
the step; the stepper then clips it to the cube), narrows the region as
vertices are fixed, and warm-starts each projection from the previous
iterate's solution.  Outside the gradient's mat-vec (counted by the
group's :class:`~repro.core.kernels.NumpyBackend`) and the projection,
each part of an iteration is one numpy expression: the noise is one draw
``rng.normal(0, η, n)`` per task, from the task's own RNG.

Structure
---------
:class:`BisectionStepper` steps a *group* of bisections in lock step:
the tasks of one recursion level (:mod:`repro.core.recursive`), or one
bisection alone, a group of one.  It takes a sequence of
:class:`Bisection` records and lays its tasks out as segments of shared
iterate buffers.  The elementwise work of an iteration runs once per
group, on those buffers: the free-vertex gather and scatter, the noise
mix-in, the sum ``z + γ·∇``, the clip to the cube, the step delta, the
fixing mask ``|x| >= threshold`` and the snap to ±1.  So do the gradient
and the fixing bookkeeping, through the group's one
:class:`~repro.core.compaction.FreeVertexSystem`: one call each per
group iteration, inside which only scipy's mat-vec loop runs per task.
What reduces over a task's values, or is scaled by a task's own scalar,
runs per task on its contiguous slice: the first step size, the product
``γ·∇``, the projection
(:meth:`~repro.core.projection.ProjectionEngine.project_in_place`) and
the engine's narrowing at a fixing event, the realized step length.
Each task keeps its own RNG stream, step controller, projection engine,
re-slice schedule (in the group's system) and finalize.  Every entry is
computed by the same operations on the same values as when its task is
stepped alone (a reduction over a contiguous slice gives the bits it
gives over a copy of the slice), so a task's output does not depend on
the group it was stepped in.

:func:`solve_bisections` builds the group, runs it for
``config.iterations`` steps and finalizes every task: the one GD loop,
and the only place a stepper is built.  :func:`gd_bisect` runs one
bisection through it (cold, or started from given sides with some
vertices fixed, as the incremental repartitioner's repair tasks are);
:func:`bisection_regions` and :func:`finalize_bisection` are a task's
construction and finalization halves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from ..partition.metrics import edge_locality, max_imbalance
from ..partition.partition import Partition
from ..partition.validation import validate_epsilon, validate_weights
from .compaction import FreeVertexSystem
from .config import GDConfig
from .kernels import NumpyBackend
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
    "Bisection",
    "BisectionResult",
    "BisectionStepper",
    "bisection_regions",
    "finalize_bisection",
    "solve_bisections",
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
class Bisection:
    """The inputs of one bisection, as :func:`gd_bisect` takes them.

    A sequence of these is a group for :class:`BisectionStepper` and
    :func:`solve_bisections`; the bisections of one group share their
    ``config`` up to its ``seed``.
    """

    graph: Graph
    weights: np.ndarray
    epsilon: float = 0.05
    config: GDConfig = field(default_factory=GDConfig)
    target_fraction: float = 0.5
    initial_x: np.ndarray | None = None
    initial_fixed: np.ndarray | None = None


@dataclass(frozen=True)
class BisectionResult:
    """Outcome of one GD bisection run.

    ``projection_stats`` counts the projections of the group the
    bisection was stepped in: its own when stepped alone, as
    :func:`gd_bisect` steps it.
    """

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


#: Alternating-projection sweeps run after the last iteration to clean up
#: the imbalance that one-shot projections accumulate (§3.1).
_FINAL_PROJECTION_ROUNDS = 50


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
    :meth:`BisectionStepper.results` passes the vertices a warm start
    left free, so the vertices it fixed provably keep their side.
    ``None`` (every cold start) lets every vertex move.
    """
    free = ~fixed
    if free.any():
        sub_region = final_region.restrict(free, x[fixed]) if fixed.any() else final_region
        cleaner = AlternatingProjector(sub_region, max_rounds=_FINAL_PROJECTION_ROUNDS)
        x[free] = cleaner.project_to_feasibility(x[free])

    sides = randomized_round(x, rng)
    if config.balance_repair:
        sides = balance_repair(graph, sides, weights, epsilon, center=center,
                               movable=movable)
    return sides


class _Task:
    """One bisection of a group: its inputs, its own solver state, and
    the views of the group's iterate buffers that hold its vertices
    (``start:stop`` of :attr:`BisectionStepper.x`).

    Validates the bisection and writes its warm start into the views.
    The step target is derived from the *free* vertex count: the
    distance left to travel is ``O(√free)``, not ``O(√n)``, and the
    final balance repair may flip only the vertices that started free.
    """

    def __init__(self, bisection: Bisection, start: int, x: np.ndarray,
                 fixed: np.ndarray, stats: ProjectionStats):
        config = bisection.config
        epsilon = validate_epsilon(bisection.epsilon)
        graph = bisection.graph
        # One memory order for every caller: a column slice such as
        # ``weights[:, mapping]`` is Fortran-ordered, and row dot products
        # over it differ in the last bit from the C-ordered rows the shm
        # executor ships, which would break the executors' bit-identity.
        weights = np.ascontiguousarray(validate_weights(graph, bisection.weights))
        target_fraction = bisection.target_fraction
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target_fraction must be strictly between 0 and 1")
        n = graph.num_vertices
        if n == 0:
            raise ValueError("every bisection of a group needs a non-empty graph")

        self.graph = graph
        self.weights = weights
        self.epsilon = epsilon
        self.config = config
        self.target_fraction = target_fraction
        self.start, self.stop = start, start + n
        self.rng = np.random.default_rng(config.seed)
        self.history: list[IterationRecord] = []
        self.relaxation = QuadraticRelaxation(graph)
        self.region, self.final_region, self.center = bisection_regions(
            weights, epsilon, config, target_fraction)
        # Noise of the first iteration (of every one with
        # ``noise_every_iteration``): enough to leave the saddle at the
        # origin, negligible beside an integral solution's scale √n.
        self.noise_std = config.noise_std if config.noise_std is not None else 1.0 / np.sqrt(n)

        if bisection.initial_x is not None:
            initial_x = np.asarray(bisection.initial_x, dtype=np.float64)
            if initial_x.shape != (n,):
                raise ValueError("initial_x must have one entry per vertex")
            x[:] = initial_x
        if bisection.initial_fixed is not None:
            initial_fixed = np.asarray(bisection.initial_fixed, dtype=bool)
            if initial_fixed.shape != (n,):
                raise ValueError("initial_fixed must have one entry per vertex")
            fixed[:] = initial_fixed
        self.x = x
        self.fixed = fixed

        # Only the vertices that start free may move in the final balance
        # repair (an all-free start needs no mask).
        self.movable = ~fixed if fixed.any() else None
        free_count = int(n - fixed.sum())
        step_target = target_step_length(max(free_count, 1), config.iterations,
                                         config.step_length_factor)
        self.controller = StepSizeController(step_target, adaptive=config.adaptive_step)
        # A warm start's engine is built on the region of its free
        # vertices, not narrowed from the full region: the one-shot
        # sweep's band centers then come from the restricted bounds.
        free_region = (self.region.restrict(~fixed, x[fixed])
                       if fixed.any() else self.region)
        self.engine = ProjectionEngine(config.projection_method, free_region, stats)


class BisectionStepper:
    """A group of GD bisections, advanced in lock step one iteration at a
    time.

    Takes a sequence of :class:`Bisection` records that share their
    config up to its seed, each with at least one vertex.  Every
    iteration runs noise → free-vertex gradient → projection → fixing on
    each task that still has free vertices (a converged task sits the
    iteration out and draws no noise).  The group's iterate :attr:`x` and
    fixed mask :attr:`fixed` hold the tasks' vertices back to back, and
    its free-vertex :attr:`system` holds every task's ``A_FF`` and
    boundary: one gradient and one fixing call per group iteration.
    :attr:`tasks` holds each task's own state (its ``engine``,
    ``controller``, ``relaxation``, ``region``, ...).  Only the projection
    depends on the method, and every task projects through its own
    engine, whose region narrows as its vertices fix.

    :attr:`engine` and :attr:`backend` are there for the counters: a
    group's engines share one
    :class:`~repro.core.projection.ProjectionStats`, and its system times
    each group gradient's mat-vec into the backend's stats, so both count
    the whole group.
    A bisection's ``initial_x`` / ``initial_fixed`` start its iterate (and fixed mask)
    from a given state instead of all-zeros — the incremental
    repartitioner's repair passes start this way from the previous
    assignment.
    """

    def __init__(self, bisections: Sequence[Bisection]):
        # Clock starts here so BisectionResult.elapsed_seconds counts
        # construction (relaxation, regions, engine, free-vertex system).
        self._start_time = time.perf_counter()
        bisections = list(bisections)
        if not bisections:
            raise ValueError("BisectionStepper needs at least one bisection")
        shared = bisections[0].config
        if any(replace(bisection.config, seed=shared.seed) != shared
               for bisection in bisections[1:]):
            raise ValueError("the bisections of a group must share their config "
                             "up to its seed")

        bounds = list(accumulate((bisection.graph.num_vertices for bisection in bisections),
                                 initial=0))
        self.x = np.zeros(bounds[-1])
        self.fixed = np.zeros(bounds[-1], dtype=bool)
        # One backend and one stats record per group: the mat-vec and the
        # projections carry per-run counters (and each engine its warm
        # state, for its own solve only); worker processes construct
        # their own, so no state crosses the pickle boundary.
        self.backend = NumpyBackend()
        stats = ProjectionStats()
        self.tasks = [_Task(bisection, start, self.x[start:stop], self.fixed[start:stop],
                            stats)
                      for bisection, start, stop in zip(bisections, bounds, bounds[1:])]
        # The unit entries of every task's mat-vec: prefix views of one
        # read-only buffer, as long as the group's largest CSR.
        unit = np.ones(max(bisection.graph.indices.size for bisection in bisections))
        unit.flags.writeable = False
        # The free vertices of every task, back to back in task order, as
        # ids into the group buffers (``system.free_ids``); task i's free
        # coordinates are ``system.free_bounds[i]:system.free_bounds[i + 1]``
        # of every free-length buffer of an iteration.
        self.system = FreeVertexSystem([bisection.graph for bisection in bisections],
                                       self.fixed, self.x, self.backend, unit)
        self._config = shared
        self._fixing_start = int(shared.fixing_start_fraction * shared.iterations)
        self._set_live()

    @property
    def engine(self) -> ProjectionEngine:
        """The first task's projection engine; its stats count the group."""
        return self.tasks[0].engine

    @property
    def converged(self) -> bool:
        """Whether every vertex is fixed (no iterate can move any more)."""
        return self.system.num_free == 0

    def _set_live(self) -> None:
        """``_live``: each task with free vertices, with its index and its
        slice of the free coordinates."""
        bounds = self.system.free_bounds
        self._live = [(index, task, start, stop)
                      for index, (task, start, stop) in enumerate(zip(self.tasks, bounds,
                                                                      bounds[1:]))
                      if start < stop]

    def step(self, iteration: int) -> None:
        """Run one noise/gradient/projection/fixing iteration on every
        task's free vertices."""
        realized = [0.0] * len(self.tasks)
        if not self.converged:
            self._iterate(iteration, realized)
        if self._config.record_history:
            for task, length in zip(self.tasks, realized):
                task.history.append(_history_record(task.graph, task.weights, task.relaxation,
                                                    task.x, iteration, length,
                                                    int(task.fixed.sum())))

    def _iterate(self, iteration: int, realized: list[float]) -> None:
        config = self._config
        free_ids = self.system.free_ids
        live = self._live
        x_free = self.x[free_ids]

        if iteration == 0 or config.noise_every_iteration:
            # Each live task draws noise for all of its vertices, fixed
            # ones included, so its RNG stream does not depend on how
            # many of them are still free.
            noise = np.zeros(self.x.size)
            for _, task, _, _ in live:
                noise[task.start:task.stop] = task.rng.normal(0.0, task.noise_std,
                                                              size=task.stop - task.start)
            z = x_free + noise[free_ids]
        else:
            z = x_free
        # The step z + γ·∇ (one gradient for the group, each task scaling
        # its own slice), then each task's projection of its slice, then
        # one clip to the cube.
        new_free = self.system.gradient(z)
        for _, task, start, stop in live:
            gradient = new_free[start:stop]
            gradient *= task.controller.step_size(gradient)
        np.add(z, new_free, out=new_free)
        for _, task, start, stop in live:
            task.engine.project_in_place(new_free[start:stop])
        np.clip(new_free, -1.0, 1.0, out=new_free)

        delta = new_free - x_free
        for index, task, start, stop in live:
            step = delta[start:stop]
            realized[index] = length = math.sqrt(step @ step)
            task.controller.update(length)
        self.x[free_ids] = new_free

        if config.vertex_fixing and iteration >= self._fixing_start:
            newly_fixed = np.abs(new_free) >= config.fixing_threshold
            if newly_fixed.any():
                self._fix(new_free, newly_fixed)

    def _fix(self, new_free: np.ndarray, newly_fixed: np.ndarray) -> None:
        """Snap and freeze the newly fixed vertices: once in the group
        buffers and the group's free-vertex system, then in each touched
        task's projection engine."""
        system = self.system
        positions = newly_fixed.nonzero()[0]
        snapped = np.where(new_free[positions] >= 0.0, 1.0, -1.0)
        dying_ids = system.free_ids[positions]
        self.x[dying_ids] = snapped
        self.fixed[dying_ids] = True
        surviving = ~newly_fixed
        # cuts[i]: how many newly fixed vertices precede task i's slice.
        cuts = positions.searchsorted(system.free_bounds).tolist()
        for index, task, start, stop in self._live:
            first, last = cuts[index], cuts[index + 1]
            if first < last:
                task.engine.narrow_restricted(surviving[start:stop], snapped[first:last])
        system.fix(newly_fixed, snapped)
        self._set_live()

    def results(self) -> list[BisectionResult]:
        """Finalize every task (clean-up projection, rounding, repair)."""
        return [self._finalize(task) for task in self.tasks]

    def _finalize(self, task: _Task) -> BisectionResult:
        config = task.config
        sides = finalize_bisection(task.graph, task.weights, config, task.epsilon,
                                   task.final_region, task.center, task.x,
                                   task.fixed, task.rng, movable=task.movable)
        partition = Partition.from_sides(task.graph, sides)

        if config.record_history:
            task.history.append(_history_record(task.graph, task.weights,
                                                task.relaxation, sides,
                                                config.iterations, 0.0,
                                                int(task.fixed.sum())))

        return BisectionResult(
            partition=partition,
            fractional=task.x,
            history=task.history,
            epsilon=task.epsilon,
            config=config,
            elapsed_seconds=time.perf_counter() - self._start_time,
            projection_stats=task.engine.stats,
        )


def solve_bisections(bisections: Sequence[Bisection]) -> list[BisectionResult]:
    """Solve a group of bisections in lock step, one result per bisection.

    Each result is bit-identical to solving its bisection alone with
    :func:`gd_bisect`.  Every graph must be non-empty.
    """
    stepper = BisectionStepper(bisections)
    for iteration in range(bisections[0].config.iterations):
        stepper.step(iteration)
    return stepper.results()


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
        A warm start (see :class:`BisectionStepper`): the starting
        iterate, and the vertices fixed from the start.
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

    (result,) = solve_bisections([Bisection(graph, weights, epsilon, config, target_fraction,
                                            initial_x, initial_fixed)])
    return result


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
