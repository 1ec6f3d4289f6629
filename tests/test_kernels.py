"""Tests of the kernel-backend layer (:mod:`repro.core.kernels`).

Property-based agreement checks between the reference :class:`NumpyBackend`
and :class:`FusedBackend`'s single pass, plus the edge cases the solver
actually hits (empty free sets, single-vertex systems), the per-kernel
counters, and the solver's quality against the reference transcription of
Algorithm 1 (``tests/reference_gd.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from reference_gd import reference_bisect
from repro.core import GDConfig, GDPartitioner, gd_bisect
from repro.core.kernels import FusedBackend, KernelStats, NumpyBackend
from repro.graphs import load_dataset, standard_weights
from repro.partition import edge_locality, imbalance

#: The GD iteration's two kernel paths, with the projection methods that
#: take each: the one-shot sweep runs fused with the gradient step
#: (``FusedBackend.fused_update``); every other method composes the
#: reference numpy kernels with the projection engine.
KERNEL_PATHS = {"fused": ("alternating_oneshot",),
                "numpy": ("exact", "alternating", "dykstra")}


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


class TestFusedAgreement:
    """FusedBackend's single-pass update is bit-identical to the composed
    float64 kernels (same operations, same order)."""

    @settings(max_examples=50)
    @given(z=_vectors(17, -1.0, 1.0), gradient=_vectors(17),
           rows=_weight_rows(2, 17), gamma=st.floats(1e-4, 2.0))
    def test_fused_update_matches_composition(self, z, gradient, rows, gamma):
        centers = rows.sum(axis=1) * 0.25
        norms = np.einsum("ij,ij->i", rows, rows)
        reference = NumpyBackend().fused_update(z, gamma, gradient, rows, centers, norms)
        fused = FusedBackend().fused_update(z, gamma, gradient, rows, centers, norms)
        assert np.array_equal(reference, fused)

    @settings(max_examples=30)
    @given(z=_vectors(11, -1.0, 1.0), gradient=_vectors(11), gamma=st.floats(1e-4, 2.0))
    def test_degenerate_hyperplane_skipped(self, z, gradient, gamma):
        # A zero weight row has an undefined hyperplane; both paths must
        # leave the point untouched by that dimension.
        rows = np.zeros((1, 11))
        centers, norms = np.zeros(1), np.zeros(1)
        reference = NumpyBackend().fused_update(z, gamma, gradient, rows, centers, norms)
        fused = FusedBackend().fused_update(z, gamma, gradient, rows, centers, norms)
        assert np.array_equal(reference, fused)
        assert np.array_equal(reference, np.clip(z + gamma * gradient, -1.0, 1.0))

    def test_fused_update_does_not_mutate_inputs(self):
        rng = np.random.default_rng(0)
        z, gradient = rng.standard_normal(9), rng.standard_normal(9)
        rows = rng.random((2, 9))
        z0, g0, r0 = z.copy(), gradient.copy(), rows.copy()
        FusedBackend().fused_update(z, 0.3, gradient, rows, rows.sum(axis=1) * 0.1,
                                    np.einsum("ij,ij->i", rows, rows))
        assert np.array_equal(z, z0)
        assert np.array_equal(gradient, g0)
        assert np.array_equal(rows, r0)


ALL_BACKENDS = [NumpyBackend, FusedBackend]


@pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
class TestPrimitiveKernels:
    """The primitive kernels match their defining numpy expressions on
    every backend (fused backends inherit them unchanged)."""

    def test_axpy_and_mix_noise(self, backend_cls, rng):
        backend = backend_cls()
        x, y, noise = rng.random(8), rng.random(8), rng.random(8)
        assert np.array_equal(backend.axpy(0.7, x, y), y + 0.7 * x)
        per_element = rng.random(8)
        assert np.array_equal(backend.axpy(per_element, x, y), y + per_element * x)
        assert np.array_equal(backend.mix_noise(x, noise), x + noise)

    def test_reductions(self, backend_cls, rng):
        backend = backend_cls()
        v, w = rng.standard_normal(9), rng.random(9)
        assert backend.step_norm(v, w) == float(np.linalg.norm(v - w))

    def test_projection_kernels(self, backend_cls, rng):
        backend = backend_cls()
        point, weights = rng.standard_normal(7), rng.random(7) + 0.1
        projected = backend.hyperplane_project(point, weights, 0.5)
        assert abs(float(weights @ projected) - 0.5) < 1e-9
        clipped = backend.clip_box(point * 3.0)
        assert np.array_equal(clipped, np.clip(point * 3.0, -1.0, 1.0))
        lam = backend.breakpoint_sweep(point, weights, 0.1)
        assert np.isfinite(lam)

    def test_gather_scatter_fixing(self, backend_cls, rng):
        backend = backend_cls()
        values = rng.standard_normal(10)
        ids = np.array([1, 4, 7])
        assert np.array_equal(backend.gather(values, ids), values[ids])
        mask = values > 0
        assert np.array_equal(backend.gather(values, mask), values[mask])
        target = np.zeros(10)
        backend.scatter(target, ids, np.ones(3))
        assert target[ids].sum() == 3.0 and target.sum() == 3.0
        assert np.array_equal(backend.fixing_mask(values, 0.5), np.abs(values) >= 0.5)
        snapped = backend.snap(values)
        assert set(np.unique(snapped)) <= {-1.0, 1.0}
        scores = rng.standard_normal(10)
        candidates = np.array([2, 5, 8])
        assert backend.masked_argmax(scores, candidates) == \
            candidates[np.argmax(scores[candidates])]

    def test_empty_free_set(self, backend_cls):
        # Zero-length arrays flow through every elementwise kernel; the
        # stepper hits this when the last vertex fixes.
        backend = backend_cls()
        empty = np.empty(0)
        assert backend.axpy(1.0, empty, empty).size == 0
        assert backend.mix_noise(empty, empty).size == 0
        assert backend.step_norm(empty, empty) == 0.0
        assert backend.clip_box(empty).size == 0
        out = backend.fused_update(empty, 0.5, empty, np.empty((2, 0)),
                                   np.zeros(2), np.zeros(2))
        assert out.size == 0

    def test_single_vertex_region(self, backend_cls):
        # d = 1 hyperplane on one coordinate: projection lands exactly on
        # the target, then the box clip applies.
        backend = backend_cls()
        z = np.array([0.3])
        out = backend.fused_update(z, 1.0, np.array([5.0]), np.array([[2.0]]),
                                   np.array([0.5]), np.array([4.0]))
        assert out.shape == (1,)
        assert out[0] == 0.25  # hyperplane 2x = 0.5, inside the box
        matrix = sparse.csr_matrix(np.zeros((1, 1)))
        assert backend.free_gradient(matrix, np.array([1.5]), z)[0] == 1.5


class TestKernelStats:
    def test_record_and_as_dict(self):
        stats = KernelStats()
        stats.record("spmv", 100)
        stats.record("spmv", 50)
        stats.record("norm", 10)
        assert stats.as_dict() == {"norm": {"calls": 1, "ns": 10},
                                   "spmv": {"calls": 2, "ns": 150}}
        assert stats.total_calls() == 3
        assert stats.total_ns() == 160

    def test_merge_accepts_both_forms(self):
        left, right = KernelStats(), KernelStats()
        left.record("axpy", 5)
        right.record("axpy", 7)
        right.record("snap", 1)
        left.merge(right)
        left.merge({"snap": {"calls": 2, "ns": 4}})
        assert left.as_dict() == {"axpy": {"calls": 2, "ns": 12},
                                  "snap": {"calls": 3, "ns": 5}}

    def test_instances_have_fresh_stats(self):
        first, second = FusedBackend(), FusedBackend()
        first.step_norm(np.ones(3), np.zeros(3))
        assert second.stats.total_calls() == 0

    def test_kernel_decorator_times_calls(self):
        backend = NumpyBackend()
        backend.step_norm(np.ones(4), np.zeros(4))
        backend.step_norm(np.ones(4), np.zeros(4))
        entry = backend.stats.as_dict()["step_norm"]
        assert entry["calls"] == 2
        assert entry["ns"] > 0


class TestSolverIntegration:
    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_bisection_surfaces_kernel_stats(self, two_cliques_graph, path):
        weights = standard_weights(two_cliques_graph, 2)
        for method in KERNEL_PATHS[path]:
            config = GDConfig(iterations=20, seed=1, projection_method=method)
            result = gd_bisect(two_cliques_graph, weights, 0.1, config)
            stats = result.kernel_stats
            assert stats, "kernel counters missing from BisectionResult"
            for entry in stats.values():
                assert entry["calls"] > 0 and entry["ns"] >= 0
            # The fused pass replaces the separate gradient step.
            assert ("fused_update" in stats) == (path == "fused"), method
            assert ("axpy" in stats) == (path == "numpy"), method
            # The gradient's mat-vec runs through the counted spmv kernel.
            assert stats["spmv"]["calls"] == stats["free_gradient"]["calls"]

    def test_fused_backends_fall_back_off_oneshot(self, two_cliques_graph):
        # The fused pass is the one-shot sweep; other projection methods
        # project through the engine instead.
        weights = standard_weights(two_cliques_graph, 2)
        config = GDConfig(iterations=15, seed=1, projection_method="exact")
        result = gd_bisect(two_cliques_graph, weights, 0.1, config)
        assert "fused_update" not in result.kernel_stats
        assert result.partition.num_parts == 2

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_solver_accepts_read_only_input_buffers(self, two_cliques_graph, path):
        # The buffer-ownership contract of KernelBackend: under the shm
        # executor the graph arrays and weights are externally owned,
        # read-only views — both kernel paths must run on them without
        # attempting an in-place write, and produce the same bits as the
        # writable path.
        weights = standard_weights(two_cliques_graph, 2)
        frozen_weights = weights.copy()
        frozen_weights.flags.writeable = False
        for method in KERNEL_PATHS[path]:
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

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_within_backend_runs_are_bit_stable(self, fb_setup, path):
        graph, weights = fb_setup
        for method in KERNEL_PATHS[path]:
            config = GDConfig(iterations=30, seed=5, projection_method=method)
            first = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 2)
            second = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 2)
            assert np.array_equal(first.assignment, second.assignment), method
