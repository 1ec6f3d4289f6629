"""Unit tests for the exact projection algorithms (1-D, 2-D, nested, active set)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.projection import (
    AlternatingProjector,
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    OneShotProjector,
    make_projector,
    project_equality,
    project_exact_1d,
    project_exact_2d,
    solve_equality_system,
    solve_lambda_1d,
    solve_lambda_2d,
    truncate,
    weighted_truncated_sum,
)


def brute_force_projection(point: np.ndarray, region: FeasibleRegion,
                           samples: int = 4000, seed: int = 0) -> float:
    """Distance to the best feasible point found by random sampling.

    Used as an upper bound check: the exact projection must not be farther
    from ``point`` than any sampled feasible point.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    n = region.num_vertices
    for _ in range(samples):
        candidate = rng.uniform(-1.0, 1.0, size=n)
        sums = region.weighted_sums(candidate)
        if np.all(sums >= region.lower - 1e-12) and np.all(sums <= region.upper + 1e-12):
            best = min(best, float(np.linalg.norm(candidate - point)))
    return best


class TestSolveLambda1D:
    def test_target_attained(self, rng):
        y = rng.normal(size=50)
        weights = rng.random(50) + 0.1
        target = 0.3 * weights.sum()
        lam = solve_lambda_1d(y, weights, target)
        assert np.isclose(weighted_truncated_sum(y, weights, lam), target, atol=1e-8)

    def test_zero_target(self, rng):
        y = rng.normal(size=30) * 3
        weights = np.ones(30)
        lam = solve_lambda_1d(y, weights, 0.0)
        assert np.isclose(weighted_truncated_sum(y, weights, lam), 0.0, atol=1e-8)

    def test_extreme_positive_target(self):
        y = np.array([0.0, 0.0, 0.0])
        weights = np.ones(3)
        lam = solve_lambda_1d(y, weights, 10.0)  # unattainable, best is +3
        x = truncate(y - lam * weights)
        assert np.allclose(x, 1.0)

    def test_extreme_negative_target(self):
        y = np.zeros(3)
        lam = solve_lambda_1d(y, np.ones(3), -10.0)
        assert np.allclose(truncate(y - lam * np.ones(3)), -1.0)

    def test_monotone_in_lambda(self, rng):
        y = rng.normal(size=20)
        weights = rng.random(20) + 0.5
        values = [weighted_truncated_sum(y, weights, lam) for lam in np.linspace(-5, 5, 50)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            solve_lambda_1d(np.zeros(3), np.array([1.0, 0.0, 1.0]), 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lambda_1d(np.zeros(3), np.ones(4), 0.0)

    def test_empty_input(self):
        assert solve_lambda_1d(np.empty(0), np.empty(0), 0.0) == 0.0

    def test_project_exact_1d_feasible(self, rng):
        y = rng.normal(size=40) * 2
        weights = rng.random(40) + 0.1
        x = project_exact_1d(y, weights, target=1.5)
        assert np.all(np.abs(x) <= 1.0 + 1e-12)
        assert np.isclose(weights @ x, 1.5, atol=1e-8)


class TestSolveLambda2D:
    def test_targets_attained(self, rng):
        n = 60
        y = rng.normal(size=n)
        weights = np.vstack([np.ones(n), rng.random(n) + 0.2])
        targets = np.array([0.0, 0.1 * weights[1].sum()])
        lambdas = solve_lambda_2d(y, weights, targets)
        x = truncate(y - weights.T @ lambdas)
        assert np.allclose(weights @ x, targets, atol=1e-6)

    def test_project_exact_2d_in_box(self, rng):
        n = 40
        y = rng.normal(size=n) * 2
        weights = np.vstack([np.ones(n), rng.random(n) + 0.5])
        targets = np.array([0.5, -0.5])
        x = project_exact_2d(y, weights, targets)
        assert np.all(np.abs(x) <= 1.0 + 1e-12)
        assert np.allclose(weights @ x, targets, atol=1e-6)

    def test_requires_two_dimensions(self, rng):
        with pytest.raises(ValueError):
            solve_lambda_2d(np.zeros(4), np.ones((3, 4)), np.zeros(3))

    def test_matches_nested_solver(self, rng):
        n = 30
        y = rng.normal(size=n)
        weights = np.vstack([rng.random(n) + 0.1, rng.random(n) + 0.1])
        targets = np.array([0.2, -0.3])
        x_2d = project_exact_2d(y, weights, targets)
        x_nested = project_equality(y, weights, targets)
        assert np.allclose(x_2d, x_nested, atol=1e-5)


class TestNestedSolver:
    def test_one_dimension_delegates(self, rng):
        y = rng.normal(size=20)
        weights = (rng.random(20) + 0.1)[None, :]
        lambdas = solve_equality_system(y, weights, np.array([0.0]))
        assert lambdas.shape == (1,)
        assert np.isclose(weighted_truncated_sum(y, weights[0], lambdas[0]), 0.0, atol=1e-8)

    def test_three_dimensions(self, rng):
        n = 30
        y = rng.normal(size=n)
        weights = np.vstack([np.ones(n), rng.random(n) + 0.2, rng.random(n) + 0.2])
        targets = np.array([0.0, 0.5, -0.5])
        x = project_equality(y, weights, targets)
        assert np.all(np.abs(x) <= 1.0 + 1e-9)
        assert np.allclose(weights @ x, targets, atol=1e-4)

    def test_rejects_target_mismatch(self):
        with pytest.raises(ValueError):
            solve_equality_system(np.zeros(5), np.ones((2, 5)), np.zeros(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_equality_system(np.zeros(5), np.ones((2, 4)), np.zeros(2))

    def test_empty_dimensions(self):
        assert solve_equality_system(np.zeros(3), np.empty((0, 3)), np.empty(0)).size == 0


class TestExactProjector:
    def _region(self, rng, n=25, d=2, epsilon=0.05):
        weights = np.vstack([np.ones(n)] + [rng.random(n) + 0.2 for _ in range(d - 1)])
        return FeasibleRegion.balanced(weights, epsilon)

    def test_feasible_point_unchanged(self, rng):
        region = self._region(rng)
        point = np.zeros(region.num_vertices)
        assert np.allclose(ExactProjector(region).project(point), point)

    def test_output_always_feasible(self, rng):
        region = self._region(rng)
        projector = ExactProjector(region)
        for scale in (0.5, 2.0, 10.0):
            point = rng.normal(size=region.num_vertices) * scale
            x = projector.project(point)
            assert region.contains(x, tolerance=1e-6)

    def test_idempotent(self, rng):
        region = self._region(rng)
        projector = ExactProjector(region)
        point = rng.normal(size=region.num_vertices) * 3
        once = projector.project(point)
        twice = projector.project(once)
        assert np.allclose(once, twice, atol=1e-7)

    def test_not_farther_than_sampled_feasible_points(self, rng):
        region = self._region(rng, n=8, epsilon=0.2)
        projector = ExactProjector(region)
        point = rng.normal(size=8) * 2
        x = projector.project(point)
        sampled_best = brute_force_projection(point, region)
        assert np.linalg.norm(point - x) <= sampled_best + 1e-6

    def test_matches_dykstra(self, rng):
        region = self._region(rng, n=20, epsilon=0.05)
        point = rng.normal(size=20) * 2
        exact = ExactProjector(region).project(point)
        dykstra = DykstraProjector(region, max_rounds=3000).project(point)
        assert np.linalg.norm(point - exact) <= np.linalg.norm(point - dykstra) + 1e-5

    def test_dimension_mismatch(self, rng):
        region = self._region(rng)
        with pytest.raises(ValueError):
            ExactProjector(region).project(np.zeros(3))

    def test_three_dimension_region(self, rng):
        region = self._region(rng, n=20, d=3, epsilon=0.1)
        point = rng.normal(size=20) * 2
        x = ExactProjector(region).project(point)
        assert region.contains(x, tolerance=1e-5)


class TestProjectorFactory:
    def test_all_methods_constructible(self, rng):
        region = FeasibleRegion.balanced(np.ones((1, 10)), epsilon=0.1)
        for method in ("exact", "alternating", "alternating_oneshot", "dykstra"):
            projector = make_projector(method, region)
            x = projector.project(rng.normal(size=10))
            assert x.shape == (10,)

    def test_unknown_method(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.1)
        with pytest.raises(ValueError):
            make_projector("nope", region)

    def test_oneshot_flag(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.1)
        assert isinstance(make_projector("alternating_oneshot", region), OneShotProjector)
        assert isinstance(make_projector("alternating", region), AlternatingProjector)
