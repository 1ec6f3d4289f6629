"""Tests for the cache-and-warm-start projection engine.

Covers the edge cases — d ≥ 3 regions, near-tight ``lower == upper``
bands, regions narrowed by fixed vertices — the warm/cold agreement
property, the cache on/off determinism contract, and the exact
projector's logged alternating-projection fallback.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import PROJECTION_METHODS, GDConfig, gd_bisect
from repro.core.gd import BisectionStepper
from repro.core.projection import (
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    ProjectionEngine,
    RegionCache,
    make_projector,
    try_warm_equality_solve,
)
from repro.graphs import livejournal_like, standard_weights


def _region(rng, n=40, d=2, epsilon=0.05):
    weights = np.vstack([np.ones(n)] + [rng.random(n) + 0.2 for _ in range(d - 1)])
    return FeasibleRegion.balanced(weights, epsilon)


def _gd_like_points(rng, n, count=15, start_scale=0.5, bias=0.3, step=0.02):
    """A slowly drifting sequence of points, like consecutive GD iterates."""
    point = rng.normal(size=n) * start_scale + bias
    for _ in range(count):
        point = point + rng.normal(size=n) * step
        yield point


class TestRegionCache:
    def test_matches_uncached_quantities(self, rng):
        region = _region(rng, d=3)
        cache = RegionCache(region)
        for j, dim in enumerate(cache.dimensions):
            w = region.weights[j]
            assert dim.total == float(w.sum())
            assert dim.norm_squared == float(w @ w)
            assert np.array_equal(dim.weights_squared, w * w)
            assert cache.centers[j] == 0.5 * (region.lower[j] + region.upper[j])
        assert np.array_equal(cache.scales,
                              np.maximum(np.abs(region.weights).sum(axis=1), 1.0))

    def test_contains_agrees_with_region(self, rng):
        region = _region(rng)
        cache = RegionCache(region)
        for scale in (0.1, 1.0, 3.0):
            x = rng.normal(size=region.num_vertices) * scale
            assert cache.contains(x) == region.contains(x)

    def test_projectors_reject_foreign_cache(self, rng):
        region = _region(rng)
        other = _region(rng)
        cache = RegionCache(other)
        for method in ("exact", "alternating", "dykstra"):
            with pytest.raises(ValueError):
                make_projector(method, region, cache=cache)


class TestWarmVersusCold:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_bit_identical_over_gd_like_sequence(self, rng, d):
        region = _region(rng, n=200, d=d)
        warm = ProjectionEngine("exact", region, cache=True)
        cold = ProjectionEngine("exact", region, cache=False)
        for point in _gd_like_points(rng, 200):
            assert np.array_equal(warm.project(point), cold.project(point))
        # The sequence is GD-like, so the warm fast path must actually fire.
        assert warm.stats.warm_accepts > 0

    def test_dykstra_agrees_within_tolerance(self, rng):
        region = _region(rng, n=150, d=2)
        warm = ProjectionEngine("dykstra", region, cache=True)
        cold = ProjectionEngine("dykstra", region, cache=False)
        for point in _gd_like_points(rng, 150):
            xw, xc = warm.project(point), cold.project(point)
            assert np.abs(xw - xc).max() < 1e-8
        # Warm dual starts must not cost rounds.
        assert warm.stats.dykstra_rounds <= cold.stats.dykstra_rounds

    def test_alternating_bit_identical(self, rng):
        for method in ("alternating", "alternating_oneshot"):
            region = _region(rng, n=100, d=2)
            warm = ProjectionEngine(method, region, cache=True)
            cold = ProjectionEngine(method, region, cache=False)
            for point in _gd_like_points(rng, 100, count=5):
                assert np.array_equal(warm.project(point), cold.project(point))

    @settings(max_examples=40, deadline=None)
    @given(point=hnp.arrays(np.float64, 25, elements=st.floats(-4.0, 4.0, allow_nan=False)),
           drift=hnp.arrays(np.float64, 25, elements=st.floats(-0.1, 0.1, allow_nan=False)),
           degree_like=hnp.arrays(np.float64, 25, elements=st.floats(0.1, 5.0, allow_nan=False)),
           epsilon=st.floats(0.02, 0.5))
    def test_property_warm_cold_agree(self, point, drift, degree_like, epsilon):
        """Warm-started and cold-started projections agree to 1e-9."""
        weights = np.vstack([np.ones_like(degree_like), degree_like])
        region = FeasibleRegion.balanced(weights, epsilon)
        warm = ProjectionEngine("exact", region, cache=True)
        cold = ProjectionEngine("exact", region, cache=False)
        first_w, first_c = warm.project(point), cold.project(point)
        np.testing.assert_allclose(first_w, first_c, atol=1e-9)
        second_w, second_c = warm.project(point + drift), cold.project(point + drift)
        np.testing.assert_allclose(second_w, second_c, atol=1e-9)

    def test_warm_solver_rejects_mismatched_guess(self, rng):
        region = _region(rng, n=30, d=2)
        point = rng.normal(size=30)
        # Wrong length: must be rejected, not crash.
        assert try_warm_equality_solve(point, region.weights,
                                       region.upper, np.zeros(3)) is None


class TestEdgeCases:
    def test_three_dimensional_region_warm_and_feasible(self, rng):
        region = _region(rng, n=60, d=3, epsilon=0.05)
        engine = ProjectionEngine("exact", region, cache=True)
        for point in _gd_like_points(rng, 60, count=8):
            x = engine.project(point)
            assert region.contains(x, tolerance=1e-6)
        assert engine.stats.fallbacks == 0

    def test_four_dimensional_region(self, rng):
        region = _region(rng, n=40, d=4, epsilon=0.1)
        engine = ProjectionEngine("exact", region, cache=True)
        x = engine.project(rng.normal(size=40) * 0.5 + 0.2)
        assert region.contains(x, tolerance=1e-5)

    @pytest.mark.parametrize("method", ["exact", "dykstra"])
    def test_degenerate_band_lower_equals_upper(self, rng, method):
        """A zero-width band (lower == upper) is a hyperplane constraint."""
        n = 30
        weights = np.vstack([np.ones(n), rng.random(n) + 0.2])
        target = np.array([0.0, 0.1 * weights[1].sum()])
        region = FeasibleRegion(weights=weights, lower=target, upper=target)
        engine = ProjectionEngine(method, region, cache=True)
        for point in _gd_like_points(rng, n, count=6, step=0.05):
            x = engine.project(point)
            assert np.abs(x).max() <= 1.0 + 1e-9
            np.testing.assert_allclose(weights @ x, target, atol=1e-6)

    def test_near_tight_band(self, rng):
        n = 30
        weights = np.ones((1, n))
        region = FeasibleRegion(weights=weights, lower=np.array([-1e-12]),
                                upper=np.array([1e-12]))
        engine = ProjectionEngine("exact", region, cache=True)
        x = engine.project(rng.normal(size=n) * 2)
        assert abs(float(weights[0] @ x)) < 1e-6

    def test_restricted_projection_matches_manual_restrict(self, rng):
        """Fixed-vertex projections agree with projecting onto region.restrict."""
        n = 50
        region = _region(rng, n=n, d=2, epsilon=0.1)
        engine = ProjectionEngine("exact", region, cache=True)
        free = np.ones(n, dtype=bool)
        free[rng.permutation(n)[:15]] = False
        fixed_values = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        engine.narrow_restricted(free, fixed_values)

        manual_region = region.restrict(free, fixed_values)
        manual = ExactProjector(manual_region)
        for point in _gd_like_points(rng, int(free.sum()), count=6):
            assert np.array_equal(engine.project(point), manual.project(point))
        # The restricted region was only built once despite six calls.
        assert engine.stats.region_rebuilds == 1

    def test_restricted_mask_shrinks(self, rng):
        """Warm state survives (and stays correct across) mask changes."""
        n = 40
        region = _region(rng, n=n, d=2, epsilon=0.1)
        engine = ProjectionEngine("dykstra", region, cache=True)
        already_fixed = 0
        for num_fixed in (0, 3, 6):  # progressively fix vertices, as GD does
            surviving = np.arange(n - already_fixed) >= num_fixed - already_fixed
            engine.narrow_restricted(surviving, np.ones(num_fixed - already_fixed))
            already_fixed = num_fixed
            free = np.arange(n) >= num_fixed
            fixed_values = np.ones(num_fixed)
            point = rng.normal(size=int(free.sum())) * 0.4 + 0.2
            got = engine.project(point)
            want = DykstraProjector(region.restrict(free, fixed_values)).project(point)
            np.testing.assert_allclose(got, want, atol=1e-8)
        assert engine.stats.region_rebuilds == 3

    def test_cache_disabled_restricted_matches_seed_path(self, rng):
        n = 30
        region = _region(rng, n=n, d=2)
        engine = ProjectionEngine("alternating_oneshot", region, cache=False)
        free = np.ones(n, dtype=bool)
        free[:5] = False
        fixed_values = np.ones(5)
        engine.narrow_restricted(free, fixed_values)
        point = rng.normal(size=25)
        want = make_projector("alternating_oneshot",
                              region.restrict(free, fixed_values)).project(point)
        assert np.array_equal(engine.project(point), want)


class TestFallbackAccounting:
    def test_fallback_counted_and_logged(self, rng, caplog):
        """An exhausted active-set budget engages — and reports — the fallback."""
        region = _region(rng, n=25, d=2)
        projector = ExactProjector(region, max_active_set_iterations=0)
        point = rng.normal(size=25) * 0.5 + 0.4  # violates the band: needs work
        with caplog.at_level(logging.WARNING, logger="repro.core.projection.exact"):
            x = projector.project(point)
        assert projector.fallback_count == 1
        assert any("fallback" in record.message for record in caplog.records)
        # The safety net still returns a feasible point.
        assert region.contains(x, tolerance=1e-6)
        assert projector.last_active is None and projector.last_lambdas is None

    def test_engine_aggregates_fallbacks(self, rng):
        region = _region(rng, n=25, d=2)
        engine = ProjectionEngine("exact", region, cache=True)
        engine._state.projector = ExactProjector(region, max_active_set_iterations=0)
        engine.project(rng.normal(size=25) * 0.5 + 0.4)
        assert engine.stats.fallbacks == 1

    def test_healthy_runs_do_not_fall_back(self, rng):
        region = _region(rng, n=50, d=2)
        engine = ProjectionEngine("exact", region, cache=True)
        for point in _gd_like_points(rng, 50, count=10):
            engine.project(point)
        assert engine.stats.fallbacks == 0


class TestGDDeterminism:
    @pytest.mark.parametrize("method", PROJECTION_METHODS)
    def test_cache_toggle_bit_identical_partitions(self, method):
        """A cold engine (``cache=False``) in place of the stepper's cached
        one gives bit-identical partitions on the d = 2 benchmark graph for
        a fixed seed.  The one-shot sweep runs fused outside the engine,
        so for it the check is that no engine state reaches the fused
        pass."""
        graph = livejournal_like(scale=0.25, seed=0)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=25, seed=0, projection_method=method)
        results = []
        for cache in (True, False):
            stepper = BisectionStepper(graph, weights, 0.05, config)
            stepper.engine = ProjectionEngine(method, stepper.region, cache=cache,
                                              backend=stepper.backend)
            for iteration in range(config.iterations):
                stepper.step(iteration)
            results.append(stepper.result())
        on, off = results
        assert np.array_equal(on.partition.assignment, off.partition.assignment)
        assert np.array_equal(on.fractional, off.fractional)

    def test_stats_reported_on_result(self):
        graph = livejournal_like(scale=0.1, seed=0)
        weights = standard_weights(graph, 2)
        result = gd_bisect(graph, weights, 0.05,
                           GDConfig(iterations=10, seed=0, projection_method="exact"))
        stats = result.projection_stats
        assert stats is not None
        assert stats.calls == 10

    def test_engine_reset_clears_warm_state(self, rng):
        region = _region(rng, n=40, d=2)
        engine = ProjectionEngine("exact", region, cache=True)
        for point in _gd_like_points(rng, 40, count=3):
            engine.project(point)
        engine.reset()
        assert engine._state.warm_lambdas is None
        assert engine._state.corrections is None
