"""Unit tests for the alternating-projection and Dykstra projectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.projection import (
    AlternatingProjector,
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    OneShotProjector,
)


def _random_region(rng, n=30, d=2, epsilon=0.05) -> FeasibleRegion:
    weights = np.vstack([np.ones(n)] + [rng.random(n) + 0.2 for _ in range(d - 1)])
    return FeasibleRegion.balanced(weights, epsilon)


class TestAlternatingProjector:
    def test_convergent_mode_reaches_feasibility(self, rng):
        region = _random_region(rng)
        projector = AlternatingProjector(region)
        point = rng.normal(size=region.num_vertices) * 3
        x = projector.project(point)
        assert region.contains(x, tolerance=1e-6)

    def test_one_shot_stays_in_box(self, rng):
        # One-shot sweeps trade feasibility for speed (the residual is
        # cleaned up at the end of GD), but the box constraint always holds
        # because the cube is the last set projected onto.
        region = _random_region(rng)
        projector = OneShotProjector(region)
        point = rng.normal(size=region.num_vertices) * 3
        x = projector.project(point)
        assert np.all(np.abs(x) <= 1.0 + 1e-12)

    def test_one_shot_band_projection_feasible_for_single_constraint(self, rng):
        # With one balance band and a point well inside the cube, a single
        # projection onto the band's center followed by clipping is
        # already feasible.
        region = _random_region(rng, d=1)
        projector = OneShotProjector(region)
        point = rng.uniform(-0.3, 0.3, size=region.num_vertices)
        x = projector.project(point)
        assert region.contains(x, tolerance=1e-6)

    def test_project_to_feasibility_always_feasible(self, rng):
        region = _random_region(rng, d=3)
        projector = AlternatingProjector(region)
        point = rng.normal(size=region.num_vertices) * 5
        x = projector.project_to_feasibility(point)
        assert region.contains(x, tolerance=1e-6)

    def test_feasible_point_stays_feasible(self, rng):
        region = _random_region(rng)
        projector = AlternatingProjector(region)
        x = projector.project(np.zeros(region.num_vertices))
        assert region.contains(x, tolerance=1e-9)

    def test_band_center_mode_hits_center(self, rng):
        n = 20
        weights = np.ones((1, n))
        region = FeasibleRegion.balanced(weights, epsilon=0.3)
        projector = OneShotProjector(region)
        point = rng.normal(size=n) * 0.3 + 0.2   # interior of the box
        x = projector.project(point)
        # Projection onto the central hyperplane => weighted sum ~ 0 when the
        # box projection does not truncate.
        assert abs(float(weights[0] @ x)) < 0.2

    def test_invalid_parameters(self, rng):
        region = _random_region(rng)
        with pytest.raises(ValueError):
            AlternatingProjector(region, max_rounds=0)
        with pytest.raises(ValueError):
            AlternatingProjector(region, tolerance=0.0)

    def test_dimension_mismatch(self, rng):
        region = _random_region(rng)
        with pytest.raises(ValueError):
            AlternatingProjector(region).project(np.zeros(5))
        with pytest.raises(ValueError):
            OneShotProjector(region).project(np.zeros(5))


class TestDykstraProjector:
    def test_output_feasible(self, rng):
        region = _random_region(rng)
        projector = DykstraProjector(region)
        point = rng.normal(size=region.num_vertices) * 3
        x = projector.project(point)
        assert region.contains(x, tolerance=1e-5)

    def test_agrees_with_exact_projection(self, rng):
        region = _random_region(rng, n=15, epsilon=0.1)
        point = rng.normal(size=15) * 2
        dykstra = DykstraProjector(region, max_rounds=3000).project(point)
        exact = ExactProjector(region).project(point)
        assert np.allclose(dykstra, exact, atol=1e-3)

    def test_feasible_point_unchanged(self, rng):
        region = _random_region(rng)
        point = np.zeros(region.num_vertices)
        assert np.allclose(DykstraProjector(region).project(point), point, atol=1e-9)

    def test_closer_than_plain_alternating(self, rng):
        # Dykstra converges to the true projection; plain alternating
        # projections only to *some* feasible point, so Dykstra can never be
        # farther from the input.
        region = _random_region(rng, n=25, epsilon=0.05)
        point = rng.normal(size=25) * 2
        dykstra = DykstraProjector(region, max_rounds=3000).project(point)
        alternating = AlternatingProjector(region).project_to_feasibility(point)
        assert (np.linalg.norm(point - dykstra)
                <= np.linalg.norm(point - alternating) + 1e-6)

    def test_invalid_parameters(self, rng):
        region = _random_region(rng)
        with pytest.raises(ValueError):
            DykstraProjector(region, max_rounds=0)
        with pytest.raises(ValueError):
            DykstraProjector(region, tolerance=-1.0)

    def test_dimension_mismatch(self, rng):
        region = _random_region(rng)
        with pytest.raises(ValueError):
            DykstraProjector(region).project(np.zeros(3))
