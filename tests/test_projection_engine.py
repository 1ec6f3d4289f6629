"""Tests for the warm-starting projection engine and the region invariants
it reads.

Covers the region's lazily computed invariants, the edge cases — d ≥ 3
regions, near-tight ``lower == upper`` bands, regions narrowed by fixed
vertices — the warm/cold agreement property (a fresh projector per call
is the cold reference), the one projection path of the GD iteration, and
the exact projector's logged alternating-projection fallback.
"""

from __future__ import annotations

import copy
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import PROJECTION_METHODS, GDConfig, gd_bisect
from repro.core.gd import BisectionStepper
from repro.core.projection import (
    AlternatingProjector,
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    OneShotProjector,
    ProjectionEngine,
    make_projector,
    truncate,
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


#: Each region invariant and the expression every projector used to
#: evaluate inline for row ``j``.
_INLINE_INVARIANTS = {
    "totals": lambda region, j: float(region.weights[j].sum()),
    "norms_squared": lambda region, j: float(region.weights[j] @ region.weights[j]),
    "weights_squared": lambda region, j: region.weights[j] * region.weights[j],
    "scales": lambda region, j: np.maximum(np.abs(region.weights).sum(axis=1), 1.0)[j],
    "centers": lambda region, j: 0.5 * (region.lower[j] + region.upper[j]),
}


class TestRegionCache:
    """A region computes each weight invariant on first read and keeps it."""

    def test_matches_uncached_quantities(self, rng):
        # A restricted region's weights are a column slice (not
        # C-contiguous), where reduction order matters most.
        full = _region(rng, n=60, d=3)
        free = rng.random(60) < 0.7
        restricted = full.restrict(free, np.ones(int((~free).sum())))
        for region in (full, restricted):
            for name, inline in _INLINE_INVARIANTS.items():
                assert name not in vars(region), f"{name} computed before it was read"
                values = getattr(region, name)
                assert getattr(region, name) is values, f"{name} recomputed"
                for j in range(region.num_dimensions):
                    assert np.array_equal(values[j], inline(region, j)), (name, j)

    def test_contains_agrees_with_region(self, rng):
        region = _region(rng)
        for scale in (0.1, 1.0, 3.0):
            x = rng.normal(size=region.num_vertices) * scale
            sums = region.weights @ x
            band_scale = np.maximum(np.abs(region.weights).sum(axis=1), 1.0)
            inline = (np.all(np.abs(x) <= 1.0 + 1e-7)
                      and np.all((region.lower - sums) / band_scale <= 1e-7)
                      and np.all((sums - region.upper) / band_scale <= 1e-7))
            assert region.contains(x) == inline


class TestWarmVersusCold:
    """The warm engine against a fresh projector per call (no warm state)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_bit_identical_over_gd_like_sequence(self, rng, d):
        region = _region(rng, n=200, d=d)
        warm = ProjectionEngine("exact", region)
        for point in _gd_like_points(rng, 200):
            assert np.array_equal(warm.project(point), ExactProjector(region).project(point))
        # The sequence is GD-like, so the warm fast path must actually fire.
        assert warm.stats.warm_accepts > 0

    def test_dykstra_agrees_within_tolerance(self, rng):
        region = _region(rng, n=150, d=2)
        warm = ProjectionEngine("dykstra", region)
        cold_rounds = 0
        for point in _gd_like_points(rng, 150):
            cold = DykstraProjector(region)
            xw, xc = warm.project(point), cold.project(point)
            cold_rounds += cold.last_rounds
            assert np.abs(xw - xc).max() < 1e-8
        # Warm dual starts must not cost rounds.
        assert warm.stats.dykstra_rounds <= cold_rounds

    def test_alternating_bit_identical(self, rng):
        for method in ("alternating", "alternating_oneshot"):
            region = _region(rng, n=100, d=2)
            warm = ProjectionEngine(method, region)
            for point in _gd_like_points(rng, 100, count=5):
                assert np.array_equal(warm.project(point),
                                      make_projector(method, region).project(point))

    @settings(max_examples=40, deadline=None)
    @given(point=hnp.arrays(np.float64, 25, elements=st.floats(-4.0, 4.0, allow_nan=False)),
           drift=hnp.arrays(np.float64, 25, elements=st.floats(-0.1, 0.1, allow_nan=False)),
           degree_like=hnp.arrays(np.float64, 25, elements=st.floats(0.1, 5.0, allow_nan=False)),
           epsilon=st.floats(0.02, 0.5))
    def test_property_warm_cold_agree(self, point, drift, degree_like, epsilon):
        """Warm-started and cold-started projections agree to 1e-9."""
        weights = np.vstack([np.ones_like(degree_like), degree_like])
        region = FeasibleRegion.balanced(weights, epsilon)
        warm = ProjectionEngine("exact", region)
        first_w, first_c = warm.project(point), ExactProjector(region).project(point)
        np.testing.assert_allclose(first_w, first_c, atol=1e-9)
        second_w = warm.project(point + drift)
        second_c = ExactProjector(region).project(point + drift)
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
        engine = ProjectionEngine("exact", region)
        for point in _gd_like_points(rng, 60, count=8):
            x = engine.project(point)
            assert region.contains(x, tolerance=1e-6)
        assert engine.stats.fallbacks == 0

    def test_four_dimensional_region(self, rng):
        region = _region(rng, n=40, d=4, epsilon=0.1)
        engine = ProjectionEngine("exact", region)
        x = engine.project(rng.normal(size=40) * 0.5 + 0.2)
        assert region.contains(x, tolerance=1e-5)

    @pytest.mark.parametrize("method", ["exact", "dykstra"])
    def test_degenerate_band_lower_equals_upper(self, rng, method):
        """A zero-width band (lower == upper) is a hyperplane constraint."""
        n = 30
        weights = np.vstack([np.ones(n), rng.random(n) + 0.2])
        target = np.array([0.0, 0.1 * weights[1].sum()])
        region = FeasibleRegion(weights=weights, lower=target, upper=target)
        engine = ProjectionEngine(method, region)
        for point in _gd_like_points(rng, n, count=6, step=0.05):
            x = engine.project(point)
            assert np.abs(x).max() <= 1.0 + 1e-9
            np.testing.assert_allclose(weights @ x, target, atol=1e-6)

    def test_near_tight_band(self, rng):
        n = 30
        weights = np.ones((1, n))
        region = FeasibleRegion(weights=weights, lower=np.array([-1e-12]),
                                upper=np.array([1e-12]))
        engine = ProjectionEngine("exact", region)
        x = engine.project(rng.normal(size=n) * 2)
        assert abs(float(weights[0] @ x)) < 1e-6

    def test_restricted_projection_matches_manual_restrict(self, rng):
        """Fixed-vertex projections agree with projecting onto region.restrict."""
        n = 50
        region = _region(rng, n=n, d=2, epsilon=0.1)
        engine = ProjectionEngine("exact", region)
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
        engine = ProjectionEngine("dykstra", region)
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
        # The one-shot projector narrows its sweep in place, shifting each
        # band center by the fixed columns' contribution, where a fresh
        # projector on the restricted region recenters the shifted bounds.
        # The two agree to rounding, and bit for bit when the shift is
        # exact (unit weights, ±1 values).
        n = 30
        free = np.ones(n, dtype=bool)
        free[:5] = False
        fixed_values = np.ones(5)
        point = rng.normal(size=25)
        for region, exact in ((_region(rng, n=n, d=2), False),
                              (FeasibleRegion.balanced(np.ones((1, n)), 0.05), True)):
            engine = ProjectionEngine("alternating_oneshot", region)
            engine.narrow_restricted(free, fixed_values)
            want = make_projector("alternating_oneshot",
                                  region.restrict(free, fixed_values)).project(point)
            if exact:
                assert np.array_equal(engine.project(point), want)
            else:
                np.testing.assert_allclose(engine.project(point), want, rtol=0, atol=1e-12)


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
        # The safety net still returns a feasible point: the alternating
        # projector's convergent sweep from the truncated input, bit for bit.
        assert region.contains(x, tolerance=1e-6)
        np.testing.assert_array_equal(
            x, AlternatingProjector(region).project_to_feasibility(truncate(point)))
        assert projector.last_active is None and projector.last_lambdas is None

    def test_engine_aggregates_fallbacks(self, rng):
        region = _region(rng, n=25, d=2)
        engine = ProjectionEngine("exact", region)
        engine._projector = ExactProjector(region, max_active_set_iterations=0)
        engine.project(rng.normal(size=25) * 0.5 + 0.4)
        assert engine.stats.fallbacks == 1

    def test_healthy_runs_do_not_fall_back(self, rng):
        region = _region(rng, n=50, d=2)
        engine = ProjectionEngine("exact", region)
        for point in _gd_like_points(rng, 50, count=10):
            engine.project(point)
        assert engine.stats.fallbacks == 0


def _project_cold(engine: ProjectionEngine) -> None:
    """Make ``engine`` project every step with a copy of its current
    projector and no warm state: the cold reference.  The copy's plain
    ``project`` of the step also stands in for the one-shot sweep's
    in-place pass."""
    def project_in_place(y):
        engine.stats.calls += 1
        y[:] = copy.deepcopy(engine._projector).project(y)
    engine.project_in_place = project_in_place


class TestGDDeterminism:
    @pytest.mark.parametrize("method", PROJECTION_METHODS)
    def test_cache_toggle_bit_identical_partitions(self, method):
        """A stepper whose engine projects with a fresh projector per call,
        never warm-started, gives bit-identical partitions on the d = 2
        benchmark graph for a fixed seed."""
        graph = livejournal_like(scale=0.25, seed=0)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=25, seed=0, projection_method=method)
        results = []
        for cold in (False, True):
            stepper = BisectionStepper(graph, weights, 0.05, config)
            if cold:
                _project_cold(stepper.engine)
            for iteration in range(config.iterations):
                stepper.step(iteration)
            results.append(stepper.result())
        warm, cold = results
        assert np.array_equal(warm.partition.assignment, cold.partition.assignment)
        assert np.array_equal(warm.fractional, cold.fractional)
        assert warm.projection_stats.calls == cold.projection_stats.calls

    def test_stats_reported_on_result(self):
        graph = livejournal_like(scale=0.1, seed=0)
        weights = standard_weights(graph, 2)
        result = gd_bisect(graph, weights, 0.05,
                           GDConfig(iterations=10, seed=0, projection_method="exact"))
        stats = result.projection_stats
        assert stats is not None
        assert stats.calls == 10


class TestOneProjectionPath:
    """Every method's GD iteration projects through the engine."""

    @pytest.mark.parametrize("method", PROJECTION_METHODS)
    def test_one_project_step_per_iteration(self, method, monkeypatch, social_graph,
                                            social_weights):
        counts = {"iterate": 0, "project_in_place": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def spy(self, *args):
                counts[name.lstrip("_")] += 1
                return original(self, *args)
            monkeypatch.setattr(owner, name, spy)

        counted(BisectionStepper, "_iterate")
        counted(ProjectionEngine, "project_in_place")
        config = GDConfig(iterations=20, seed=2, projection_method=method)
        result = gd_bisect(social_graph, social_weights, 0.05, config)
        assert counts["project_in_place"] == counts["iterate"] == result.projection_stats.calls
        assert counts["iterate"] > 0
        # Vertices fixed along the way, so the region was narrowed.
        assert result.projection_stats.region_rebuilds > 0

    def test_warm_start_first_step_projects_on_restricted_region(self, social_graph,
                                                                 social_weights):
        """A stepper given ``initial_fixed`` builds its one-shot projector on
        the region of its free vertices: the band centers come from the
        restricted bounds, not from shifting the full region's centers
        (which differs in the last bits for real-valued weight rows)."""
        n = social_graph.num_vertices
        rng = np.random.default_rng(0)
        weights = np.vstack([social_weights, rng.uniform(0.5, 2.0, n)])
        initial_x = np.clip(rng.normal(scale=0.5, size=n), -1.0, 1.0)
        initial_fixed = rng.random(n) < 0.4
        initial_x[initial_fixed] = np.where(initial_x[initial_fixed] >= 0.0, 1.0, -1.0)
        stepper = BisectionStepper(social_graph, weights, 0.05,
                                   GDConfig(iterations=10, seed=0),
                                   initial_x=initial_x, initial_fixed=initial_fixed)
        steps = []
        project_in_place = stepper.engine.project_in_place

        def spy(y):
            point = y.copy()
            project_in_place(y)
            steps.append((point, np.clip(y, -1.0, 1.0)))
        stepper.engine.project_in_place = spy
        stepper.step(0)

        point, out = steps[0]
        free_region = stepper.region.restrict(~initial_fixed, initial_x[initial_fixed])
        assert np.array_equal(out, OneShotProjector(free_region).project(point))
        # The data tells the two apart: shifting the full region's centers
        # gives other bits here.
        shifted = (stepper.region.centers
                   - stepper.weights[:, initial_fixed] @ initial_x[initial_fixed])
        assert not np.array_equal(free_region.centers, shifted)
