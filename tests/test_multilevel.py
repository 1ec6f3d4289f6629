"""Tests of the free-vertex system the GD iteration runs on
(core/compaction.py), the stepper's warm-start hooks, the projection
engine's incrementally narrowed region, and the compacted loop's quality
against the full-size reference transcription of Algorithm 1
(``tests/reference_gd.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_gd import reference_bisect
from repro.core import (
    ExecutionConfig,
    FreeVertexSystem,
    GDConfig,
    PARALLELISM_MODES,
    PROJECTION_METHODS,
    ProjectionEngine,
    QuadraticRelaxation,
    gd_bisect,
    recursive_bisection,
)
from repro.core.gd import Bisection, BisectionStepper
from repro.core.kernels import NumpyBackend
from repro.core.projection import FeasibleRegion
from repro.graphs import fb_like, standard_weights
from repro.graphs.generators import power_law_cluster_graph
from repro.partition import edge_locality, imbalance


# --------------------------------------------------------------------- #
# Determinism contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("parallelism", PARALLELISM_MODES)
def test_compaction_bit_identical_across_backends(social_graph, social_weights,
                                                  parallelism):
    config = GDConfig(iterations=15, seed=4)
    reference = recursive_bisection(social_graph, social_weights, 4, 0.05, config)
    execution = ExecutionConfig(parallelism=parallelism, max_workers=2)
    run = recursive_bisection(social_graph, social_weights, 4, 0.05,
                              config.with_updates(execution=execution))
    assert np.array_equal(run.assignment, reference.assignment)


# --------------------------------------------------------------------- #
# Stepper warm-start hooks
# --------------------------------------------------------------------- #
def test_stepper_accepts_initial_iterate_and_mask(social_graph, social_weights):
    n = social_graph.num_vertices
    rng = np.random.default_rng(0)
    initial_x = np.clip(rng.normal(scale=0.5, size=n), -1.0, 1.0)
    initial_fixed = np.zeros(n, dtype=bool)
    initial_fixed[: n // 3] = True
    initial_x[initial_fixed] = np.sign(initial_x[initial_fixed] + 1e-9)
    stepper = BisectionStepper([Bisection(social_graph, social_weights, 0.05,
                                          GDConfig(iterations=10, seed=0),
                                          initial_x=initial_x, initial_fixed=initial_fixed)])
    np.testing.assert_array_equal(stepper.x, initial_x)
    stepper.step(0)
    # Fixed coordinates never move.
    np.testing.assert_array_equal(stepper.x[initial_fixed],
                                  initial_x[initial_fixed])


def test_stepper_rescales_step_target_to_free_count(social_graph, social_weights):
    """The per-level step-length fix: a warm-started stepper targets
    √free/I, not √n/I."""
    n = social_graph.num_vertices
    fixed = np.zeros(n, dtype=bool)
    fixed[: n // 2] = True
    x = np.zeros(n)
    x[fixed] = 1.0
    config = GDConfig(iterations=10, seed=0)
    (cold,) = BisectionStepper([Bisection(social_graph, social_weights, 0.05, config)]).tasks
    (warm,) = BisectionStepper([Bisection(social_graph, social_weights, 0.05, config,
                                          initial_x=x, initial_fixed=fixed)]).tasks
    ratio = warm.controller.target_length / cold.controller.target_length
    np.testing.assert_allclose(ratio, np.sqrt((n - n // 2) / n), rtol=1e-12)


def test_stepper_rejects_mismatched_initial_state(social_graph, social_weights):
    config = GDConfig(iterations=5, seed=0)
    with pytest.raises(ValueError, match="initial_x"):
        BisectionStepper([Bisection(social_graph, social_weights, 0.05, config,
                                    initial_x=np.zeros(3))])
    with pytest.raises(ValueError, match="initial_fixed"):
        BisectionStepper([Bisection(social_graph, social_weights, 0.05, config,
                                    initial_fixed=np.zeros(3, dtype=bool))])


# --------------------------------------------------------------------- #
# FreeVertexSystem (compaction)
# --------------------------------------------------------------------- #
def _dense_reference_gradient(adjacency, x, free_ids):
    return (adjacency @ x)[free_ids]


class _ScipyFreeSystem:
    """The free-vertex system's epochs built with scipy fancy indexing and
    scipy's mat-vec: the simple reference that ``FreeVertexSystem`` must
    match bit for bit (same epochs, same re-slice schedule)."""

    def __init__(self, adjacency, fixed, values):
        free_ids = np.flatnonzero(~fixed)
        if fixed.any():
            fixed_ids = np.flatnonzero(fixed)
            rows = adjacency[free_ids]
            self.matrix = rows[:, free_ids].tocsr()
            self.boundary = np.asarray(rows[:, fixed_ids] @ values[fixed_ids]).ravel()
        else:
            self.matrix = adjacency
            self.boundary = np.zeros(adjacency.shape[0])
        self.live = np.ones(free_ids.size, dtype=bool)
        self.frozen = np.zeros(free_ids.size)
        self.reslices = 0

    def gradient(self, z_free):
        if self.live.all():
            return self.matrix @ z_free + self.boundary
        z_epoch = self.frozen.copy()
        z_epoch[self.live] = z_free
        return (self.matrix @ z_epoch + self.boundary)[self.live]

    def fix(self, newly_fixed, values):
        dying = np.flatnonzero(self.live)[newly_fixed]
        self.frozen[dying] = values
        self.live[dying] = False
        live_count = int(self.live.sum())
        if live_count and live_count < FreeVertexSystem._RESLICE_FRACTION * self.live.size:
            live_local = np.flatnonzero(self.live)
            dead_local = np.flatnonzero(~self.live)
            rows = self.matrix[live_local]
            self.boundary = (self.boundary[live_local]
                             + np.asarray(rows[:, dead_local]
                                          @ self.frozen[dead_local]).ravel())
            self.matrix = rows[:, live_local].tocsr()
            self.live = np.ones(live_count, dtype=bool)
            self.frozen = np.zeros(live_count)
            self.reslices += 1


def test_free_vertex_system_matches_masked_gradient(social_graph):
    relaxation = QuadraticRelaxation(social_graph)
    adjacency = relaxation.adjacency
    n = social_graph.num_vertices
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, n)
    fixed = rng.random(n) < 0.4
    x[fixed] = np.sign(x[fixed] + 1e-9)
    system = FreeVertexSystem([social_graph], fixed, x, NumpyBackend(),
                              np.ones(social_graph.indices.size))
    z = x[system.free_ids] + rng.normal(scale=0.01, size=system.num_free)
    full = x.copy()
    full[system.free_ids] = z
    np.testing.assert_allclose(system.gradient(z),
                               _dense_reference_gradient(adjacency, full,
                                                         system.free_ids),
                               rtol=1e-12, atol=1e-12)


def test_free_vertex_system_fix_is_exact_across_epochs(social_graph):
    """Repeated fixing events spanning at least two re-slices, from a cold
    start and from warm starts: the operator, the boundary and every
    gradient equal the scipy-built reference system's bit for bit.  The
    fixed values are fractional, so any change in a sum's order shows."""
    relaxation = QuadraticRelaxation(social_graph)
    adjacency = relaxation.adjacency
    n = social_graph.num_vertices
    rng = np.random.default_rng(3)
    for start_fixed in (0, 10, 200):
        x = rng.uniform(-1, 1, n)
        fixed = np.zeros(n, dtype=bool)
        fixed[rng.permutation(n)[:start_fixed]] = True
        system = FreeVertexSystem([social_graph], fixed, x, NumpyBackend(),
                                  np.ones(social_graph.indices.size))
        reference = _ScipyFreeSystem(adjacency, fixed, x)
        while reference.reslices < 2:
            assert system.num_free >= 4
            newly = np.zeros(system.num_free, dtype=bool)
            newly[rng.permutation(system.num_free)[: (2 * system.num_free) // 5]] = True
            frozen = rng.uniform(-1, 1, int(newly.sum()))
            x[system.free_ids[newly]] = frozen
            system.fix(newly, frozen)
            reference.fix(newly, frozen)
            z = x[system.free_ids] + rng.normal(scale=0.01, size=system.num_free)
            matrix, boundary = system.epoch(0)
            np.testing.assert_array_equal(matrix.indptr, reference.matrix.indptr)
            np.testing.assert_array_equal(matrix.indices, reference.matrix.indices)
            np.testing.assert_array_equal(boundary, reference.boundary)
            np.testing.assert_array_equal(system.gradient(z), reference.gradient(z))
            full = x.copy()
            full[system.free_ids] = z
            np.testing.assert_allclose(
                system.gradient(z),
                _dense_reference_gradient(adjacency, full, system.free_ids),
                rtol=1e-12, atol=1e-12)


def test_free_vertex_system_validates_inputs(social_graph):
    n = social_graph.num_vertices
    with pytest.raises(ValueError, match="fixed mask"):
        FreeVertexSystem([social_graph], np.zeros(3, dtype=bool), np.zeros(3), NumpyBackend(),
                         np.ones(social_graph.indices.size))
    fixed = np.zeros(n, dtype=bool)
    fixed[0] = True
    system = FreeVertexSystem([social_graph], fixed, np.zeros(n), NumpyBackend(),
                              np.ones(social_graph.indices.size))
    with pytest.raises(ValueError, match="newly_fixed"):
        system.fix(np.zeros(3, dtype=bool), np.zeros(0))


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(12, 80), min_size=2, max_size=5, unique=True),
       warm=st.lists(st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2**31 - 1))
def test_group_system_matches_each_task_alone(sizes, warm, seed):
    """A group's system against one scipy-built reference per task, cold
    and warm started: after every fixing event the group gradient is the
    concatenation of the tasks' reference gradients, and each task's epoch
    operator and boundary are its reference's, bit for bit.  Each event
    fixes fractional values at random free positions of random tasks; at
    most one task crosses its own re-slice threshold per event, so the
    run sees two tasks re-slice at different events before one task is
    fixed entirely, which ends it."""
    rng = np.random.default_rng(seed)
    graphs = [power_law_cluster_graph(num_vertices=n, num_communities=2, average_degree=6.0,
                                      seed=int(rng.integers(2**31)))
              for n in sizes]
    bounds = np.cumsum([0] + sizes)
    x = rng.uniform(-1, 1, bounds[-1])
    fixed = np.zeros(bounds[-1], dtype=bool)
    for start, stop, is_warm in zip(bounds, bounds[1:], warm):
        if is_warm:
            fixed[start + rng.permutation(stop - start)[:rng.integers(1, (stop - start) // 2)]] = True
    system = FreeVertexSystem(graphs, fixed, x, NumpyBackend(),
                              np.ones(max(graph.indices.size for graph in graphs)))
    references = [_ScipyFreeSystem(QuadraticRelaxation(graph).adjacency,
                                   fixed[start:stop].copy(), x[start:stop].copy())
                  for graph, start, stop in zip(graphs, bounds, bounds[1:])]

    def check():
        np.testing.assert_array_equal(system.free_ids, np.flatnonzero(~fixed))
        free = system.free_bounds
        z = x[system.free_ids] + rng.normal(scale=0.01, size=system.num_free)
        expected = [reference.gradient(z[first:last]) if first < last else np.empty(0)
                    for reference, first, last in zip(references, free, free[1:])]
        assert system.gradient(z).tobytes() == np.concatenate(expected).tobytes()
        for index, (reference, first, last) in enumerate(zip(references, free, free[1:])):
            if first < last:
                matrix, boundary = system.epoch(index)
                np.testing.assert_array_equal(matrix.indptr, reference.matrix.indptr)
                np.testing.assert_array_equal(matrix.indices, reference.matrix.indices)
                assert boundary.tobytes() == reference.boundary.tobytes()

    check()
    resliced_at: dict[int, list[int]] = {}
    finished = False
    event = 0
    while not finished:
        free = system.free_bounds
        newly = np.zeros(system.num_free, dtype=bool)
        # Once two tasks have re-sliced, this event fixes a whole task.
        finish = (rng.choice([index for index in range(len(sizes)) if free[index] < free[index + 1]])
                  if len(resliced_at) >= 2 else None)
        crossed = False
        for index in rng.permutation(len(sizes)):
            first, live = free[index], free[index + 1] - free[index]
            if index == finish:
                newly[first:first + live] = True
                continue
            if live < 2 or rng.random() < 0.5:
                continue
            count = int(rng.integers(1, live))
            threshold = FreeVertexSystem._RESLICE_FRACTION * references[index].live.size
            if live - count < threshold:
                if crossed:
                    count = live - math.ceil(threshold)
                    if count < 1:
                        continue
                crossed = True
            newly[first + rng.choice(live, count, replace=False)] = True
        if not newly.any():
            continue
        values = rng.uniform(-1, 1, int(newly.sum()))
        dying = system.free_ids[newly]
        x[dying] = values
        fixed[dying] = True
        cuts = np.flatnonzero(newly).searchsorted(free)
        for index, reference in enumerate(references):
            if cuts[index] < cuts[index + 1]:
                reslices = reference.reslices
                reference.fix(newly[free[index]:free[index + 1]],
                              values[cuts[index]:cuts[index + 1]])
                if reference.reslices > reslices:
                    resliced_at.setdefault(index, []).append(event)
        system.fix(newly, values)
        check()
        finished = finish is not None
        event += 1
    first_reslices = sorted(events[0] for events in resliced_at.values())
    assert len(set(first_reslices)) == len(first_reslices) >= 2


# --------------------------------------------------------------------- #
# Compacted stepping
# --------------------------------------------------------------------- #
def test_compaction_inert_without_vertex_fixing(social_graph, social_weights):
    """With vertex fixing disabled nothing is ever fixed: the free-vertex
    system stays the graph's own CSR, uncopied, the relaxation never
    builds its scipy matrix, and the region is never narrowed."""
    for method in ("alternating_oneshot", "exact"):
        config = GDConfig(iterations=15, seed=6, vertex_fixing=False,
                          projection_method=method)
        stepper = BisectionStepper([Bisection(social_graph, social_weights, 0.05, config)])
        for iteration in range(config.iterations):
            stepper.step(iteration)
        (task,) = stepper.tasks
        matrix, _ = stepper.system.epoch(0)
        assert not stepper.fixed.any()
        assert stepper.system.num_free == social_graph.num_vertices
        assert matrix.indptr is social_graph.indptr
        assert matrix.indices is social_graph.indices
        assert "adjacency" not in vars(task.relaxation)
        assert task.engine.stats.region_rebuilds == 0


def test_compacted_run_quality_matches_masked():
    """Every projection method runs the compacted free-vertex loop; each
    must deliver the quality of the full-size reference, which never fixes
    or compacts.  The two are not bit-comparable, so the checks are on
    outcomes over several GD seeds: every output ε-balanced in every
    dimension, and the mean edge locality at most one point below the
    reference's."""
    graph = fb_like(80, scale=0.5, seed=0)
    weights = standard_weights(graph, 2)
    seeds, iterations, epsilon = range(4), 60, 0.05
    reference = np.mean([edge_locality(reference_bisect(graph, weights, epsilon,
                                                        iterations, seed))
                         for seed in seeds])
    for method in PROJECTION_METHODS:
        localities = []
        for seed in seeds:
            config = GDConfig(iterations=iterations, seed=seed, projection_method=method)
            partition = gd_bisect(graph, weights, epsilon, config).partition
            assert np.all(imbalance(partition, weights) <= epsilon + 1e-9), (method, seed)
            localities.append(edge_locality(partition))
        assert np.mean(localities) >= reference - 1.0, method


def test_compacted_projection_matches_full_restriction(social_graph, social_weights):
    """The engine's incrementally narrowed region projects to the same
    point as a from-scratch restriction of the full region."""
    region = FeasibleRegion.balanced(social_weights, 0.05)
    n = social_graph.num_vertices
    rng = np.random.default_rng(8)
    fixed = rng.random(n) < 0.3
    values = np.where(rng.random(int(fixed.sum())) < 0.5, 1.0, -1.0)
    full_values = np.zeros(n)
    full_values[fixed] = values

    engine = ProjectionEngine("alternating_oneshot", region)
    engine.narrow_restricted(~fixed, full_values[fixed])
    # Narrow twice, then compare against a one-shot restriction.
    free_ids = np.flatnonzero(~fixed)
    newly = np.zeros(free_ids.size, dtype=bool)
    newly[rng.permutation(free_ids.size)[: free_ids.size // 4]] = True
    snapped = np.where(rng.random(int(newly.sum())) < 0.5, 1.0, -1.0)
    engine.narrow_restricted(~newly, snapped)

    fixed_after = fixed.copy()
    fixed_after[free_ids[newly]] = True
    full_values[free_ids[newly]] = snapped
    reference = ProjectionEngine("alternating_oneshot",
                                 region.restrict(~fixed_after, full_values[fixed_after]))
    point = rng.normal(size=int((~fixed_after).sum()))
    np.testing.assert_allclose(engine.project(point), reference.project(point),
                               rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------- #
def test_config_validates_multilevel_fields():
    """GD has no multilevel V-cycle, so GDConfig refuses its knobs like
    any unknown field, from keywords and from serialized dicts alike."""
    for name, value in (("multilevel", True), ("coarsest_size", 256),
                        ("refinement_iterations", 6)):
        with pytest.raises(TypeError, match=name):
            GDConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            GDConfig.from_dict({name: value})
