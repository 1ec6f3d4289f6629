"""Property-based tests (hypothesis) for the projection algorithms.

These check the mathematical invariants of the projection step on randomly
generated instances: feasibility, idempotence, constraint satisfaction of
the equality solvers, and optimality relative to independent methods.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.projection import (
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    project_onto_band,
    solve_lambda_1d,
    truncate,
    weighted_truncated_sum,
)

_SIZES = st.integers(min_value=2, max_value=40)


def _points(n):
    return hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0, allow_nan=False))


def _weights(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.1, 5.0, allow_nan=False))


class TestBoxProperties:
    @given(point=_points(25))
    def test_projection_inside_box(self, point):
        assert np.all(np.abs(truncate(point)) <= 1.0)

    @given(point=_points(25))
    def test_idempotent(self, point):
        once = truncate(point)
        assert np.array_equal(truncate(once), once)

    @given(point=_points(25))
    def test_never_moves_interior_coordinates(self, point):
        projected = truncate(point)
        interior = np.abs(point) <= 1.0
        assert np.array_equal(projected[interior], point[interior])


class TestBandProperties:
    @given(point=_points(20), weights=_weights(20),
           slack=st.floats(0.1, 3.0))
    def test_result_inside_band(self, point, weights, slack):
        projected = project_onto_band(point, weights, -slack, slack)
        assert -slack - 1e-7 <= float(weights @ projected) <= slack + 1e-7

    @given(point=_points(20), weights=_weights(20), slack=st.floats(0.1, 3.0))
    def test_idempotent(self, point, weights, slack):
        once = project_onto_band(point, weights, -slack, slack)
        twice = project_onto_band(once, weights, -slack, slack)
        assert np.allclose(once, twice, atol=1e-9)


class TestSolve1DProperties:
    @settings(max_examples=60)
    @given(point=_points(30), weights=_weights(30),
           fraction=st.floats(-0.8, 0.8))
    def test_target_satisfied_when_attainable(self, point, weights, fraction):
        target = fraction * weights.sum()
        lam = solve_lambda_1d(point, weights, target)
        assert abs(weighted_truncated_sum(point, weights, lam) - target) < 1e-6

    @settings(max_examples=60)
    @given(point=_points(30), weights=_weights(30), fraction=st.floats(-0.8, 0.8))
    def test_solution_in_box(self, point, weights, fraction):
        lam = solve_lambda_1d(point, weights, fraction * weights.sum())
        x = truncate(point - lam * weights)
        assert np.all(np.abs(x) <= 1.0)


class TestExactProjectorProperties:
    @settings(max_examples=30, deadline=None)
    @given(point=_points(20), degree_like=_weights(20),
           epsilon=st.floats(0.02, 0.5))
    def test_feasible_and_idempotent(self, point, degree_like, epsilon):
        weights = np.vstack([np.ones_like(degree_like), degree_like])
        region = FeasibleRegion.balanced(weights, epsilon)
        projector = ExactProjector(region)
        x = projector.project(point)
        assert region.contains(x, tolerance=1e-5)
        assert np.allclose(projector.project(x), x, atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(point=_points(12), degree_like=_weights(12), epsilon=st.floats(0.05, 0.5))
    def test_no_farther_than_dykstra(self, point, degree_like, epsilon):
        weights = np.vstack([np.ones_like(degree_like), degree_like])
        region = FeasibleRegion.balanced(weights, epsilon)
        exact = ExactProjector(region).project(point)
        dykstra = DykstraProjector(region, max_rounds=2000).project(point)
        assert (np.linalg.norm(point - exact)
                <= np.linalg.norm(point - dykstra) + 1e-4)
