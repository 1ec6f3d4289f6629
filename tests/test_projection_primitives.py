"""Unit tests for projection primitives: box, hyperplane, band, feasible region."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.projection import (
    FeasibleRegion,
    project_onto_band,
    project_onto_hyperplane,
    truncate,
)


class TestBox:
    def test_inside_unchanged(self):
        point = np.array([0.5, -0.3, 0.0])
        assert np.array_equal(truncate(point), point)

    def test_clipping(self):
        assert np.array_equal(truncate(np.array([2.0, -3.0, 0.5])),
                              [1.0, -1.0, 0.5])

    def test_truncate_alias(self):
        assert np.array_equal(truncate(np.array([1.5, -1.5, 0.2])), [1.0, -1.0, 0.2])


class TestHyperplane:
    def test_result_on_plane(self):
        point = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 1.0])
        projected = project_onto_hyperplane(point, weights, target=0.0)
        assert np.isclose(weights @ projected, 0.0)

    def test_point_on_plane_unchanged(self):
        point = np.array([1.0, -1.0])
        weights = np.array([1.0, 1.0])
        projected = project_onto_hyperplane(point, weights, target=0.0)
        assert np.allclose(projected, point)

    def test_is_closest_point(self):
        rng = np.random.default_rng(0)
        point = rng.normal(size=5)
        weights = rng.random(5) + 0.1
        projected = project_onto_hyperplane(point, weights, target=1.0)
        # Any other on-plane point is at least as far away.
        for _ in range(20):
            other = rng.normal(size=5)
            other = project_onto_hyperplane(other, weights, target=1.0)
            assert np.linalg.norm(point - projected) <= np.linalg.norm(point - other) + 1e-9

    def test_zero_weights_returns_copy(self):
        point = np.array([1.0, 2.0])
        projected = project_onto_hyperplane(point, np.zeros(2), target=5.0)
        assert np.array_equal(projected, point)
        assert projected is not point


class TestBand:
    def test_inside_unchanged(self):
        point = np.array([0.1, -0.1])
        projected = project_onto_band(point, np.ones(2), lower=-1.0, upper=1.0)
        assert np.array_equal(projected, point)

    def test_projects_to_nearest_face(self):
        point = np.array([2.0, 2.0])
        projected = project_onto_band(point, np.ones(2), lower=-1.0, upper=1.0)
        assert np.isclose(np.ones(2) @ projected, 1.0)

    def test_lower_face(self):
        point = np.array([-3.0, -3.0])
        projected = project_onto_band(point, np.ones(2), lower=-1.0, upper=1.0)
        assert np.isclose(np.ones(2) @ projected, -1.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            project_onto_band(np.zeros(2), np.ones(2), lower=1.0, upper=-1.0)


class TestFeasibleRegion:
    def test_balanced_constructor(self):
        weights = np.array([[1.0, 1.0, 1.0, 1.0]])
        region = FeasibleRegion.balanced(weights, epsilon=0.25)
        assert np.allclose(region.lower, [-1.0])
        assert np.allclose(region.upper, [1.0])

    def test_contains_origin(self):
        region = FeasibleRegion.balanced(np.ones((2, 6)), epsilon=0.1)
        assert region.contains(np.zeros(6))

    def test_rejects_box_violation(self):
        region = FeasibleRegion.balanced(np.ones((1, 3)), epsilon=1.0)
        assert not region.contains(np.array([1.5, 0.0, 0.0]))

    def test_rejects_band_violation(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.1)
        assert not region.contains(np.array([1.0, 1.0, 1.0, 1.0]))

    def test_violation_zero_inside(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.5)
        assert region.violation(np.zeros(4)) == 0.0

    def test_violation_positive_outside(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.1)
        assert region.violation(np.ones(4)) > 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FeasibleRegion(weights=np.ones((1, 3)), lower=np.array([1.0]),
                           upper=np.array([-1.0]))

    def test_mismatched_bound_length_rejected(self):
        with pytest.raises(ValueError):
            FeasibleRegion(weights=np.ones((2, 3)), lower=np.array([0.0]),
                           upper=np.array([0.0]))

    def test_weighted_sums(self):
        weights = np.array([[1.0, 2.0, 3.0]])
        region = FeasibleRegion.balanced(weights, epsilon=1.0)
        assert np.allclose(region.weighted_sums(np.array([1.0, 1.0, 1.0])), [6.0])

    def test_restrict_shifts_bounds(self):
        weights = np.array([[1.0, 1.0, 1.0, 1.0]])
        region = FeasibleRegion.balanced(weights, epsilon=0.5)  # bounds ±2
        free = np.array([True, True, False, False])
        restricted = region.restrict(free, fixed_values=np.array([1.0, 1.0]))
        assert np.allclose(restricted.lower, [-4.0])
        assert np.allclose(restricted.upper, [0.0])
        assert restricted.num_vertices == 2

    def test_restrict_wrong_mask_length(self):
        region = FeasibleRegion.balanced(np.ones((1, 4)), epsilon=0.5)
        with pytest.raises(ValueError):
            region.restrict(np.array([True, False]), np.array([1.0]))
