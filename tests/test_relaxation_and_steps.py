"""Unit tests for the quadratic relaxation and its gradient, the noise
schedule, the step controller and the config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FreeVertexSystem,
    GDConfig,
    NumpyBackend,
    QuadraticRelaxation,
    StepSizeController,
    gd_bisect,
    target_step_length,
)
from repro.core.gd import Bisection, BisectionStepper


def _gradient(graph, x):
    """``∇f(x) = Ax`` as the GD iteration computes it: the gradient of
    a free-vertex system with every vertex free."""
    system = FreeVertexSystem([graph], np.zeros(graph.num_vertices, dtype=bool), x,
                              NumpyBackend(), np.ones(graph.indices.size))
    return system.gradient(x)


class TestQuadraticRelaxation:
    def test_objective_matches_bruteforce(self, two_cliques_graph, rng):
        relaxation = QuadraticRelaxation(two_cliques_graph)
        x = rng.uniform(-1, 1, size=two_cliques_graph.num_vertices)
        brute = 0.5 * sum(x[u] * x[v] for u, v in two_cliques_graph.iter_edges()) * 2
        assert np.isclose(relaxation.objective(x), brute)

    def test_gradient_matches_bruteforce(self, triangle_graph):
        x = np.array([1.0, -1.0, 0.5])
        expected = np.array([x[1] + x[2], x[0] + x[2], x[0] + x[1]])
        assert np.allclose(_gradient(triangle_graph, x), expected)

    def test_integral_solution_objective_counts_uncut_edges(self, two_cliques_graph):
        relaxation = QuadraticRelaxation(two_cliques_graph)
        sides = np.array([1.0] * 5 + [-1.0] * 5)
        # 20 internal edges agree, 1 bridge disagrees: f = (20 - 1) = 19,
        # and ½ Σ_E (x_u x_v + 1) = (f + |E|) / 2 counts the 20 uncut edges.
        assert np.isclose(relaxation.objective(sides), 19.0)
        assert np.isclose((relaxation.objective(sides) + two_cliques_graph.num_edges) / 2, 20.0)

    def test_zero_vector_is_saddle(self, social_graph):
        zeros = np.zeros(social_graph.num_vertices)
        assert np.allclose(_gradient(social_graph, zeros), 0.0)


class TestNoiseSchedule:
    """Noise is one draw from a task's RNG: at the first iteration, or at
    every one with ``noise_every_iteration``; nothing else in an
    iteration draws from it."""

    @staticmethod
    def _rng_moves(graph, weights, config, iterations):
        """Whether the task's RNG state moved at each of ``iterations``."""
        stepper = BisectionStepper([Bisection(graph, weights, 0.05, config)])
        rng = stepper.tasks[0].rng
        moved = []
        for iteration in iterations:
            before = rng.bit_generator.state
            stepper.step(iteration)
            moved.append(rng.bit_generator.state != before)
        return moved

    def test_noise_only_at_first_iteration(self, social_graph, social_weights):
        config = GDConfig(iterations=10, seed=1)
        assert self._rng_moves(social_graph, social_weights, config, [0, 1]) == [True, False]

    def test_noise_every_iteration(self, social_graph, social_weights):
        config = GDConfig(iterations=10, seed=1, noise_every_iteration=True)
        assert self._rng_moves(social_graph, social_weights, config, [0, 1]) == [True, True]

    def test_default_std_scales_with_n(self, social_graph, social_weights):
        # ``noise_std=None`` is 1/√n, bit for bit; a different deviation
        # gives other bits, so the comparison sees the noise.
        def solve(noise_std):
            config = GDConfig(iterations=20, seed=2, noise_std=noise_std)
            return gd_bisect(social_graph, social_weights, 0.05, config)

        default = solve(None)
        root = np.sqrt(social_graph.num_vertices)
        explicit = solve(1.0 / root)
        assert default.fractional.tobytes() == explicit.fractional.tobytes()
        assert np.array_equal(default.partition.assignment, explicit.partition.assignment)
        assert default.fractional.tobytes() != solve(2.0 / root).fractional.tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="noise_std"):
            GDConfig(noise_std=-0.5)
        assert GDConfig(noise_std=0.0).noise_std == 0.0


class TestStepSizeController:
    def test_target_step_length_formula(self):
        assert target_step_length(10000, 100, factor=2.0) == pytest.approx(2.0)

    def test_first_step_normalizes_gradient(self):
        controller = StepSizeController(target_length=1.0, adaptive=True)
        gradient = np.array([3.0, 4.0])  # norm 5
        assert controller.step_size(gradient) == pytest.approx(0.2)

    def test_adaptive_update_increases_when_short(self):
        controller = StepSizeController(target_length=1.0, adaptive=True)
        gamma0 = controller.step_size(np.array([1.0]))
        controller.update(realized_length=0.25)  # realized 4x too short
        assert controller.step_size(np.array([1.0])) > gamma0

    def test_adaptive_update_decreases_when_long(self):
        controller = StepSizeController(target_length=1.0, adaptive=True)
        gamma0 = controller.step_size(np.array([1.0]))
        controller.update(realized_length=4.0)
        assert controller.step_size(np.array([1.0])) < gamma0

    def test_nonadaptive_keeps_gamma(self):
        controller = StepSizeController(target_length=1.0, adaptive=False)
        gamma0 = controller.step_size(np.array([2.0]))
        controller.update(realized_length=0.01)
        assert controller.step_size(np.array([2.0])) == gamma0

    def test_zero_realized_pushes_harder(self):
        controller = StepSizeController(target_length=1.0, adaptive=True)
        gamma0 = controller.step_size(np.array([1.0]))
        controller.update(realized_length=0.0)
        assert controller.step_size(np.array([1.0])) == pytest.approx(2.0 * gamma0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            StepSizeController(target_length=0.0)
        with pytest.raises(ValueError):
            target_step_length(100, 0)


class TestGDConfig:
    def test_defaults_valid(self):
        config = GDConfig()
        assert config.iterations == 100
        assert config.projection_method == "alternating_oneshot"

    def test_with_updates(self):
        config = GDConfig().with_updates(iterations=10, projection_method="exact")
        assert config.iterations == 10
        assert config.projection_method == "exact"

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            GDConfig(iterations=0)

    def test_invalid_projection(self):
        with pytest.raises(ValueError):
            GDConfig(projection_method="magic")

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            GDConfig(fixing_threshold=0.0)
        with pytest.raises(ValueError):
            GDConfig(fixing_threshold=1.5)

    def test_invalid_step_factor(self):
        with pytest.raises(ValueError):
            GDConfig(step_length_factor=0.0)

    def test_invalid_projection_epsilon(self):
        with pytest.raises(ValueError):
            GDConfig(projection_epsilon=0.0)

    def test_invalid_fixing_fraction(self):
        with pytest.raises(ValueError):
            GDConfig(fixing_start_fraction=1.5)
