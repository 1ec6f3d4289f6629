"""Tests of the counted mat-vec (:mod:`repro.core.kernels`) and of the
one-shot step.

Property-based agreement of the one-shot step as the stepper takes it
(:meth:`ProjectionEngine.project_in_place` plus the clip to the cube)
with a plain composition of the projection primitives, the edge cases
the solver actually hits (empty free sets, single-vertex systems), the
mat-vec's counters, and the solver's quality against the reference
transcription of Algorithm 1 (``tests/reference_gd.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from reference_gd import reference_bisect
from repro.core import FreeVertexSystem, GDConfig, GDPartitioner, PROJECTION_METHODS, gd_bisect
from repro.core.gd import Bisection, BisectionStepper
from repro.core.kernels import KernelStats, NumpyBackend
from repro.core.projection import (
    FeasibleRegion,
    ProjectionEngine,
    project_onto_hyperplane,
)
from repro.graphs import Graph, load_dataset, standard_weights
from repro.partition import edge_locality, imbalance

#: The GD iteration's two step paths, with the projection methods that
#: take each: the one-shot sweep updates the step ``z + γ·g`` in place
#: (``OneShotProjector.sweep``); every other method projects the step
#: with its projector.
STEP_PATHS = {"sweep": ("alternating_oneshot",),
              "projector": ("exact", "alternating", "dykstra")}


def _vectors(n, lo=-5.0, hi=5.0):
    return hnp.arrays(np.float64, n, elements=st.floats(lo, hi, allow_nan=False))


def _weight_rows(d, n):
    return hnp.arrays(np.float64, (d, n), elements=st.floats(0.0, 4.0, allow_nan=False))


def _random_csr(n, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < 0.3
    dense = np.triu(dense, 1)
    adjacency = (dense | dense.T).astype(np.float64)
    return sparse.csr_matrix(adjacency)


def _band(rows):
    """A region over ``rows`` with off-center bands (centers ≠ 0)."""
    totals = rows.sum(axis=1)
    return FeasibleRegion(weights=rows, lower=0.1 * totals, upper=0.4 * totals)


def _step(engine, z, gamma, gradient):
    """One task's step as the stepper takes it: ``z + γ·gradient`` in a
    fresh buffer, projected in place by ``engine``, clipped to the cube."""
    y = np.empty(z.shape[0])
    np.multiply(gamma, gradient, out=y)
    np.add(z, y, out=y)
    engine.project_in_place(y)
    return np.clip(y, -1.0, 1.0, out=y)


def _composed_step(z, gamma, gradient, rows, centers):
    """The one-shot step written out: the GD step, one hyperplane
    projection per row (squared norms by einsum), the box clip."""
    y = z + gamma * gradient
    norms = np.einsum("ij,ij->i", rows, rows)
    for row, center, norm_squared in zip(rows, centers, norms):
        y = project_onto_hyperplane(y, row, center, norm_squared)
    return np.clip(y, -1.0, 1.0)


class TestFusedAgreement:
    """The one-shot step's in-place pass plus the clip is bit-identical to
    the plain composition of the step, the hyperplane projections and the
    clip."""

    @settings(max_examples=50)
    @given(z=_vectors(17, -1.0, 1.0), gradient=_vectors(17),
           rows=st.integers(1, 3).flatmap(lambda d: _weight_rows(d, 17)),
           gamma=st.floats(1e-4, 2.0))
    def test_fused_update_matches_composition(self, z, gradient, rows, gamma):
        region = _band(rows)
        step = _step(ProjectionEngine("alternating_oneshot", region), z, gamma, gradient)
        assert np.array_equal(step, _composed_step(z, gamma, gradient, rows, region.centers))

    @settings(max_examples=30)
    @given(z=_vectors(17, -1.0, 1.0), gradient=_vectors(17), rows=_weight_rows(2, 17),
           gamma=st.floats(1e-4, 2.0), dropped=hnp.arrays(bool, 17),
           sides=hnp.arrays(bool, 17))
    def test_narrowed_step_matches_composition(self, z, gradient, rows, gamma,
                                               dropped, sides):
        # Narrowing shifts the centers by the dropped columns' constant
        # contribution and slices the columns out, as the stepper's
        # fixing events do.
        region = _band(rows)
        values = np.where(sides[dropped], 1.0, -1.0)
        engine = ProjectionEngine("alternating_oneshot", region)
        engine.narrow_restricted(~dropped, values)
        kept = ~dropped
        centers = region.centers - rows[:, dropped] @ values
        step = _step(engine, z[kept], gamma, gradient[kept])
        assert np.array_equal(step, _composed_step(z[kept], gamma, gradient[kept],
                                                   np.ascontiguousarray(rows[:, kept]),
                                                   centers))

    @settings(max_examples=30)
    @given(z=_vectors(11, -1.0, 1.0), gradient=_vectors(11), gamma=st.floats(1e-4, 2.0))
    def test_degenerate_hyperplane_skipped(self, z, gradient, gamma):
        # A zero weight row has an undefined hyperplane; the step must
        # leave the point untouched by that dimension.
        region = _band(np.zeros((1, 11)))
        step = _step(ProjectionEngine("alternating_oneshot", region), z, gamma, gradient)
        assert np.array_equal(step, np.clip(z + gamma * gradient, -1.0, 1.0))

    def test_fused_update_does_not_mutate_inputs(self):
        rng = np.random.default_rng(0)
        z, gradient = rng.standard_normal(9), rng.standard_normal(9)
        rows = rng.random((2, 9))
        z0, g0, r0 = z.copy(), gradient.copy(), rows.copy()
        engine = ProjectionEngine("alternating_oneshot", _band(rows))
        _step(engine, z, 0.3, gradient)
        assert np.array_equal(z, z0)
        assert np.array_equal(gradient, g0)
        assert np.array_equal(rows, r0)


class TestSliceViewArithmetic:
    """The reductions a lock-step group runs on one task's contiguous
    slice of a shared buffer give the bits they give on a fresh copy of
    that slice.  The group stepper's bit-identity with stepping each task
    alone rests on this; a numpy or BLAS that breaks it fails here first."""

    def test_reductions_on_segment_views_match_copies(self):
        rng = np.random.default_rng(0)
        for case in range(3000):
            d = 1 + case % 3
            total = int(rng.integers(1, 400))
            start = int(rng.integers(0, total))
            stop = int(rng.integers(start + 1, total + 1))
            buffer = np.ascontiguousarray(rng.standard_normal((d, total)))
            line = rng.standard_normal(total)
            view, segment = buffer[:, start:stop], line[start:stop]
            copy, fresh = np.ascontiguousarray(view), segment.copy()
            scale = rng.standard_normal(stop - start)
            where = f"case {case}: d={d}, segment {start}:{stop} of {total}"
            assert np.dot(segment, segment) == np.dot(fresh, fresh), where
            assert np.dot(view[0], segment) == np.dot(copy[0], fresh), where
            assert np.linalg.norm(segment) == np.linalg.norm(fresh), where
            assert np.array_equal(np.einsum("ij,ij->i", view, view),
                                  np.einsum("ij,ij->i", copy, copy)), where
            assert np.array_equal(view @ scale, copy @ scale), where
            assert np.array_equal(copy @ segment, copy @ fresh), where


ALL_BACKENDS = [NumpyBackend]


@pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
class TestPrimitiveKernels:
    """The step and the free-vertex gradient on the smallest inputs."""

    def test_axpy(self, backend_cls, rng):
        # The GD step ``z + γ·g`` that every projection method starts
        # from (the exact projection of an interior point is the point
        # itself).
        x, y = rng.random(8) - 0.5, rng.random(8) - 0.5
        wide = FeasibleRegion.balanced(np.ones((1, 8)), 1.0)
        assert np.array_equal(_step(ProjectionEngine("exact", wide), y, 0.7, x), y + 0.7 * x)

    def test_empty_free_set(self, backend_cls):
        # Zero-length arrays flow through the free-vertex gradient and
        # every projection method's step; the stepper hits this when the
        # last vertex fixes.
        empty = np.empty(0)
        system = FreeVertexSystem(Graph.from_edges(3, [(0, 1), (1, 2)]), np.ones(3, dtype=bool),
                                  np.array([1.0, -1.0, 1.0]), backend_cls(), np.ones(4))
        assert system.num_free == 0
        assert system.gradient(empty).size == 0
        region = FeasibleRegion(weights=np.empty((2, 0)), lower=np.zeros(2),
                                upper=np.zeros(2))
        for method in PROJECTION_METHODS:
            out = _step(ProjectionEngine(method, region), empty, 0.5, empty)
            assert out.size == 0, method

    def test_single_vertex_region(self, backend_cls):
        # d = 1 hyperplane on one coordinate: projection lands exactly on
        # the target, then the box clip applies.
        z = np.array([0.3])
        region = FeasibleRegion(weights=np.array([[2.0]]), lower=np.array([0.25]),
                                upper=np.array([0.75]))
        out = _step(ProjectionEngine("alternating_oneshot", region), z, 1.0, np.array([5.0]))
        assert out.shape == (1,)
        assert out[0] == 0.25  # hyperplane 2x = 0.5, inside the box
        # One free vertex of a triangle: no free neighbour, so its
        # gradient is the fixed neighbours' boundary term 1.0 - 0.5.
        system = FreeVertexSystem(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
                                  np.array([True, True, False]), np.array([1.0, -0.5, 0.0]),
                                  backend_cls(), np.ones(6))
        assert np.array_equal(system.boundary, [0.5])
        assert np.array_equal(system.gradient(z), system.boundary)


class TestSpmvPinnedToScipy:
    """``NumpyBackend.spmv`` runs the C loop behind scipy's ``csr_matrix @
    x`` directly, from a private scipy module; its output must stay the
    bits of ``matrix @ x``.  A scipy release that moves or changes that
    loop fails here first."""

    @staticmethod
    def _matrix(num_rows, num_columns, index_dtype, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((num_rows, num_columns)) < 0.25) * rng.standard_normal(
            (num_rows, num_columns))
        dense[::4] = 0.0  # empty rows
        matrix = sparse.csr_matrix(dense)
        matrix.indices = matrix.indices.astype(index_dtype)
        matrix.indptr = matrix.indptr.astype(index_dtype)
        return matrix

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("shape", [(40, 30), (1, 7), (0, 5), (0, 0)])
    def test_bits_match_matmul(self, index_dtype, shape):
        rng = np.random.default_rng(5)
        for seed in range(5):
            matrix = self._matrix(*shape, index_dtype, seed)
            assert matrix.indices.dtype == matrix.indptr.dtype == index_dtype
            x = rng.standard_normal(shape[1])
            result = NumpyBackend().spmv(matrix, x)
            expected = matrix @ x
            assert result.dtype == expected.dtype and result.shape == expected.shape
            assert result.tobytes() == expected.tobytes()

    def test_rejects_a_vector_of_the_wrong_length(self):
        matrix = self._matrix(6, 4, np.int32, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            NumpyBackend().spmv(matrix, np.ones(5))


class TestKernelStats:
    def test_record_accumulates_calls_and_ns(self):
        stats = KernelStats()
        stats.record("spmv", 100)
        stats.record("spmv", 50)
        stats.record("norm", 10)
        assert stats.counters == {"spmv": [2, 150], "norm": [1, 10]}

    def test_instances_have_fresh_stats(self):
        first, second = NumpyBackend(), NumpyBackend()
        first.spmv(_random_csr(3, 0), np.ones(3))
        assert second.stats.counters == {}

    def test_kernel_decorator_times_calls(self):
        backend = NumpyBackend()
        matrix = _random_csr(4, 1)
        backend.spmv(matrix, np.ones(4))
        backend.spmv(matrix, np.ones(4))
        calls, ns = backend.stats.counters["spmv"]
        assert calls == 2
        assert ns > 0


class TestSolverIntegration:
    @pytest.mark.parametrize("path", STEP_PATHS)
    def test_bisection_surfaces_kernel_stats(self, two_cliques_graph, path):
        # The counters stay on the stepper's backend, where a tracer
        # reads them; no result carries them.
        weights = standard_weights(two_cliques_graph, 2)
        for method in STEP_PATHS[path]:
            config = GDConfig(iterations=20, seed=1, projection_method=method)
            stepper = BisectionStepper([Bisection(two_cliques_graph, weights, 0.1, config)])
            for iteration in range(config.iterations):
                stepper.step(iteration)
            # The gradient's mat-vec is the one counted kernel; the rest
            # of the iteration is plain numpy, and the projection runs in
            # the engine: one mat-vec per projection, for every method.
            counters = stepper.backend.stats.counters
            assert set(counters) == {"spmv"}, method
            calls, ns = counters["spmv"]
            assert calls > 0 and ns >= 0
            assert calls == stepper.engine.stats.calls, method

    def test_fused_backends_fall_back_off_oneshot(self, two_cliques_graph):
        # The fused step is the one-shot sweep's; off it, every step
        # projects the composed point through the engine's warm path.
        weights = standard_weights(two_cliques_graph, 2)
        config = GDConfig(iterations=15, seed=1, projection_method="exact")
        stepper = BisectionStepper([Bisection(two_cliques_graph, weights, 0.1, config)])
        projected = []
        warm_project = stepper.engine.project
        stepper.engine.project = lambda point: projected.append(point) or warm_project(point)
        for iteration in range(config.iterations):
            stepper.step(iteration)
        assert len(projected) == stepper.engine.stats.calls > 0
        (result,) = stepper.results()
        assert result.partition.num_parts == 2

    @pytest.mark.parametrize("path", STEP_PATHS)
    def test_solver_accepts_read_only_input_buffers(self, two_cliques_graph, path):
        # The buffer-ownership contract of NumpyBackend: under the shm
        # executor the graph arrays and weights are externally owned,
        # read-only views — both kernel paths must run on them without
        # attempting an in-place write, and produce the same bits as the
        # writable path.
        weights = standard_weights(two_cliques_graph, 2)
        frozen_weights = weights.copy()
        frozen_weights.flags.writeable = False
        for method in STEP_PATHS[path]:
            config = GDConfig(iterations=20, seed=1, projection_method=method)
            reference = gd_bisect(two_cliques_graph, weights, 0.1, config)
            for array in (two_cliques_graph.indptr, two_cliques_graph.indices,
                          two_cliques_graph.edges):
                array.flags.writeable = False
            try:
                result = gd_bisect(two_cliques_graph, frozen_weights, 0.1, config)
            finally:
                for array in (two_cliques_graph.indptr, two_cliques_graph.indices,
                              two_cliques_graph.edges):
                    array.flags.writeable = True
            assert np.array_equal(result.partition.assignment,
                                  reference.partition.assignment), method


class TestCrossBackendQuality:
    """The fused pass against the reference transcription of Algorithm 1
    on the fb preset: mean locality at most one point below the
    reference's; repeated runs on either kernel path bit-stable."""

    SEEDS = range(4)

    @pytest.fixture(scope="class")
    def fb_setup(self):
        graph = load_dataset("fb-80", scale=0.5, seed=3)
        return graph, standard_weights(graph, 2)

    def test_fused_locality_within_one_point(self, fb_setup):
        # Compared on the mean over GD seeds: the two are not
        # bit-comparable (the solver fixes vertices and sweeps once per
        # iteration), so single runs differ by a few points either way.
        graph, weights = fb_setup
        reference, fused = [], []
        for seed in self.SEEDS:
            reference.append(edge_locality(reference_bisect(graph, weights, 0.05,
                                                            iterations=60, seed=seed)))
            config = GDConfig(iterations=60, seed=seed)
            partition = GDPartitioner(epsilon=0.05, config=config).partition(
                graph, weights, 2)
            assert np.all(imbalance(partition, weights) <= 0.05 + 1e-9)
            fused.append(edge_locality(partition))
        assert np.mean(fused) >= np.mean(reference) - 1.0

    @pytest.mark.parametrize("path", STEP_PATHS)
    def test_within_backend_runs_are_bit_stable(self, fb_setup, path):
        graph, weights = fb_setup
        for method in STEP_PATHS[path]:
            config = GDConfig(iterations=30, seed=5, projection_method=method)
            first = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 2)
            second = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 2)
            assert np.array_equal(first.assignment, second.assignment), method
